package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the dataflow engine behind allochot and the summary layer
// (summary.go): a per-function control-flow graph at statement
// granularity over go/ast, plus reaching definitions. Everything is
// intraprocedural and deliberately conservative: function literals are
// opaque to the graph (their bodies are not split into blocks), goto is
// approximated as "may reach exit", and a switch fallthrough ends its
// case at the join like a normal case.

// guardCond wraps the condition of an if or for statement, a switch tag,
// or a case expression. Its presence in a block means execution of the
// block's successors is conditional on the expression; the taint
// analysis treats every variable the guard mentions as validated on both
// branches.
type guardCond struct{ ast.Expr }

// cfgBlock is a basic block: a straight-line sequence of statement-level
// nodes. Besides ordinary ast.Stmt values a block can hold guardCond
// wrappers and, for range loops, the *ast.RangeStmt itself
// (meaning "evaluate the range operands and bind key/value" — its Body is
// in successor blocks, so walkers must not descend into it).
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
	preds []*cfgBlock
	// loopDepth is the number of enclosing loops; blocks executed once
	// per iteration (header, body, latch) count the loop, the after
	// block does not.
	loopDepth int
}

// cfg is one function body's control-flow graph.
type cfg struct {
	entry  *cfgBlock
	exit   *cfgBlock
	blocks []*cfgBlock
}

type branchFrame struct {
	label      string
	breakTo    *cfgBlock
	continueTo *cfgBlock // nil for switch/select frames
}

type cfgBuilder struct {
	g         *cfg
	cur       *cfgBlock
	depth     int
	frames    []branchFrame
	nextLabel string
}

// buildCFG constructs the control-flow graph of a function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	g := &cfg{}
	b := &cfgBuilder{g: g}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	b.cur = g.entry
	b.stmt(body)
	b.edge(b.cur, g.exit)
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock { return b.newBlockAt(b.depth) }

func (b *cfgBuilder) newBlockAt(depth int) *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks), loopDepth: depth}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

func (b *cfgBuilder) add(n ast.Node) { b.cur.nodes = append(b.cur.nodes, n) }

// takeLabel consumes the pending label from an enclosing LabeledStmt.
func (b *cfgBuilder) takeLabel() string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

// findFrame resolves a break/continue target; label may be nil.
func (b *cfgBuilder) findFrame(label *ast.Ident, needContinue bool) *branchFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needContinue && f.continueTo == nil {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.LabeledStmt:
		b.nextLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.nextLabel = ""
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(guardCond{s.Cond})
		condBlk := b.cur
		join := b.newBlock()
		thenBlk := b.newBlock()
		b.edge(condBlk, thenBlk)
		b.cur = thenBlk
		b.stmt(s.Body)
		b.edge(b.cur, join)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(condBlk, join)
		}
		b.cur = join
	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		header := b.newBlockAt(b.depth + 1)
		b.edge(b.cur, header)
		if s.Cond != nil {
			header.nodes = append(header.nodes, guardCond{s.Cond})
		}
		after := b.newBlockAt(b.depth)
		latch := b.newBlockAt(b.depth + 1)
		if s.Post != nil {
			latch.nodes = append(latch.nodes, s.Post)
		}
		b.edge(latch, header)
		if s.Cond != nil {
			b.edge(header, after)
		}
		body := b.newBlockAt(b.depth + 1)
		b.edge(header, body)
		b.cur = body
		b.depth++
		b.frames = append(b.frames, branchFrame{label: label, breakTo: after, continueTo: latch})
		b.stmt(s.Body)
		b.frames = b.frames[:len(b.frames)-1]
		b.depth--
		b.edge(b.cur, latch)
		b.cur = after
	case *ast.RangeStmt:
		label := b.takeLabel()
		header := b.newBlockAt(b.depth + 1)
		b.edge(b.cur, header)
		header.nodes = append(header.nodes, s)
		after := b.newBlockAt(b.depth)
		b.edge(header, after)
		body := b.newBlockAt(b.depth + 1)
		b.edge(header, body)
		b.cur = body
		b.depth++
		b.frames = append(b.frames, branchFrame{label: label, breakTo: after, continueTo: header})
		b.stmt(s.Body)
		b.frames = b.frames[:len(b.frames)-1]
		b.depth--
		b.edge(b.cur, header)
		b.cur = after
	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(guardCond{s.Tag})
		}
		condBlk := b.cur
		join := b.newBlock()
		b.frames = append(b.frames, branchFrame{label: label, breakTo: join})
		hasDefault := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			blk := b.newBlock()
			b.edge(condBlk, blk)
			b.cur = blk
			for _, e := range cc.List {
				b.add(guardCond{e})
			}
			for _, st := range cc.Body {
				b.stmt(st)
			}
			b.edge(b.cur, join)
		}
		b.frames = b.frames[:len(b.frames)-1]
		if !hasDefault {
			b.edge(condBlk, join)
		}
		b.cur = join
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		condBlk := b.cur
		join := b.newBlock()
		b.frames = append(b.frames, branchFrame{label: label, breakTo: join})
		hasDefault := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			blk := b.newBlock()
			b.edge(condBlk, blk)
			b.cur = blk
			for _, st := range cc.Body {
				b.stmt(st)
			}
			b.edge(b.cur, join)
		}
		b.frames = b.frames[:len(b.frames)-1]
		if !hasDefault {
			b.edge(condBlk, join)
		}
		b.cur = join
	case *ast.SelectStmt:
		label := b.takeLabel()
		condBlk := b.cur
		join := b.newBlock()
		b.frames = append(b.frames, branchFrame{label: label, breakTo: join})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(condBlk, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			for _, st := range cc.Body {
				b.stmt(st)
			}
			b.edge(b.cur, join)
		}
		b.frames = b.frames[:len(b.frames)-1]
		if len(s.Body.List) == 0 {
			b.edge(condBlk, join)
		}
		b.cur = join
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.exit)
		b.cur = b.newBlock()
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if f := b.findFrame(s.Label, false); f != nil {
				b.edge(b.cur, f.breakTo)
			}
			b.cur = b.newBlock()
		case token.CONTINUE:
			if f := b.findFrame(s.Label, true); f != nil {
				b.edge(b.cur, f.continueTo)
			}
			b.cur = b.newBlock()
		case token.GOTO:
			// Conservative: a goto may reach anywhere; treat as exiting.
			b.edge(b.cur, b.g.exit)
			b.cur = b.newBlock()
		case token.FALLTHROUGH:
			// Approximated: the case ends at the switch join like any
			// other. Fallthrough is not used in this module's code.
		}
	case nil, *ast.EmptyStmt:
		// nothing
	default:
		// Leaf statements: assignments, declarations, expression
		// statements, inc/dec, send, defer, go. Stored whole.
		b.add(s)
	}
}

// reversePostorder returns the blocks reachable from entry in reverse
// postorder — the natural iteration order for a forward analysis.
func (g *cfg) reversePostorder() []*cfgBlock {
	seen := make([]bool, len(g.blocks))
	var order []*cfgBlock
	var dfs func(b *cfgBlock)
	dfs = func(b *cfgBlock) {
		seen[b.index] = true
		for _, s := range b.succs {
			if !seen[s.index] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(g.entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// --- reaching definitions ---------------------------------------------

// defSite is one definition of a local variable. node == nil marks the
// boundary definition (parameter, receiver, named result). rhs is the
// assigned expression when the assignment is syntactically one-to-one,
// else nil (multi-value assignments, range bindings, inc/dec).
type defSite struct {
	obj  types.Object
	node ast.Node
	rhs  ast.Expr
}

// defState maps each variable to the set of its reaching definitions.
type defState map[types.Object]map[*defSite]bool

func (s defState) clone() defState {
	c := make(defState, len(s))
	for o, sites := range s {
		m := make(map[*defSite]bool, len(sites))
		for site := range sites {
			m[site] = true
		}
		c[o] = m
	}
	return c
}

func (s defState) equal(t defState) bool {
	if len(s) != len(t) {
		return false
	}
	for o, sites := range s {
		ts, ok := t[o]
		if !ok || len(ts) != len(sites) {
			return false
		}
		for site := range sites {
			if !ts[site] {
				return false
			}
		}
	}
	return true
}

// reachingDefs is the classic gen/kill reaching-definitions analysis over
// a function's CFG, tracking only simple local variables (assignments
// through pointers, fields or indexing do not kill).
type reachingDefs struct {
	g     *cfg
	info  *types.Info
	sites map[ast.Node][]*defSite
	in    map[*cfgBlock]defState
}

// newReachingDefs builds and solves reaching definitions. boundary lists
// the variables defined at function entry (parameters, receiver, named
// results).
func newReachingDefs(g *cfg, info *types.Info, boundary []types.Object) *reachingDefs {
	rd := &reachingDefs{g: g, info: info, sites: map[ast.Node][]*defSite{}}
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			if defs := rd.collectDefs(n); len(defs) > 0 {
				rd.sites[n] = defs
			}
		}
	}
	entryState := defState{}
	for _, o := range boundary {
		entryState[o] = map[*defSite]bool{{obj: o}: true}
	}

	rpo := g.reversePostorder()
	in := map[*cfgBlock]defState{}
	out := map[*cfgBlock]defState{}
	for changed := true; changed; {
		changed = false
		for _, blk := range rpo {
			var s defState
			if blk == g.entry {
				s = entryState.clone()
			} else {
				s = defState{}
				for _, p := range blk.preds {
					po, ok := out[p]
					if !ok {
						continue
					}
					for o, sites := range po {
						m := s[o]
						if m == nil {
							m = map[*defSite]bool{}
							s[o] = m
						}
						for site := range sites {
							m[site] = true
						}
					}
				}
			}
			prev, seen := in[blk]
			if seen && prev.equal(s) {
				continue
			}
			in[blk] = s
			o := s.clone()
			for _, n := range blk.nodes {
				rd.apply(o, n)
			}
			out[blk] = o
			changed = true
		}
	}
	rd.in = in
	return rd
}

// collectDefs returns the definitions a stored CFG node generates.
func (rd *reachingDefs) collectDefs(n ast.Node) []*defSite {
	var defs []*defSite
	addIdent := func(e ast.Expr, rhs ast.Expr, node ast.Node) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := rd.info.Defs[id]
		if obj == nil {
			obj = rd.info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() {
			defs = append(defs, &defSite{obj: obj, node: node, rhs: rhs})
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		oneToOne := len(n.Lhs) == len(n.Rhs)
		for i, lhs := range n.Lhs {
			var rhs ast.Expr
			if oneToOne {
				rhs = n.Rhs[i]
			}
			addIdent(lhs, rhs, n)
		}
	case *ast.IncDecStmt:
		addIdent(n.X, nil, n)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return nil
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			oneToOne := len(vs.Values) == len(vs.Names)
			for i, name := range vs.Names {
				var rhs ast.Expr
				if oneToOne {
					rhs = vs.Values[i]
				}
				addIdent(name, rhs, n)
			}
		}
	case *ast.RangeStmt:
		if n.Key != nil {
			addIdent(n.Key, nil, n)
		}
		if n.Value != nil {
			addIdent(n.Value, nil, n)
		}
	}
	return defs
}

// apply mutates s with node n's gen/kill effect.
func (rd *reachingDefs) apply(s defState, n ast.Node) {
	for _, site := range rd.sites[n] {
		s[site.obj] = map[*defSite]bool{site: true}
	}
}

// defsBefore returns the definitions of obj that reach the program point
// just before target, which must be a node of block blk. It returns nil
// when the block is unreachable.
func (rd *reachingDefs) defsBefore(blk *cfgBlock, target ast.Node, obj types.Object) []*defSite {
	entry, ok := rd.in[blk]
	if !ok {
		return nil
	}
	s := entry.clone()
	for _, n := range blk.nodes {
		if n == target {
			break
		}
		rd.apply(s, n)
	}
	var out []*defSite
	for site := range s[obj] {
		out = append(out, site)
	}
	return out
}

// --- shared helpers ----------------------------------------------------

// boundaryObjects returns the variables live at function entry: the
// receiver, parameters, and named results.
func boundaryObjects(info *types.Info, d *ast.FuncDecl) []types.Object {
	var out []types.Object
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if o := info.Defs[name]; o != nil {
					out = append(out, o)
				}
			}
		}
	}
	addFields(d.Recv)
	addFields(d.Type.Params)
	addFields(d.Type.Results)
	return out
}

// inspectNoFuncLit walks n like ast.Inspect but does not descend into
// function literal bodies — the engine treats closures as opaque.
func inspectNoFuncLit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		return fn(x)
	})
}

// inspectEvaluated walks the expressions node n itself evaluates:
// guardCond wrappers are unwrapped (ast.Inspect rejects foreign node
// types), a stored *ast.RangeStmt contributes only its range operand (its
// body lives in successor blocks), and function literal bodies are
// skipped.
func inspectEvaluated(n ast.Node, fn func(ast.Node) bool) {
	if c, ok := n.(guardCond); ok {
		n = c.Expr
	}
	if r, ok := n.(*ast.RangeStmt); ok {
		inspectNoFuncLit(r.X, fn)
		return
	}
	inspectNoFuncLit(n, fn)
}

// forEachFuncDecl invokes fn for every function or method declaration
// with a body in the package, together with its enclosing file.
func forEachFuncDecl(p *Package, fn func(f *ast.File, d *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Body != nil {
				fn(f, d)
			}
		}
	}
}

// objOf resolves an identifier to its object (definition or use).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}
