package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// This file is the per-function half of the interprocedural layer (see
// interproc.go for the fixed-point driver): a bit-mask taint analysis over
// the cfg.go engine that produces one ipSummary per module function. The
// mask lattice assigns bit i to parameter i (receiver first) and a
// dedicated seed bit to values read from the encoded input (decode-read
// calls, raw byte-slice loads — same seeds as decodebound). Joins are
// bitwise OR, so the per-function analysis and the bottom-up propagation
// over the call graph are both monotone and terminate.
//
// A summary records, for each parameter, whether it can reach an
// unguarded allocation size, a narrowing integer conversion, or a loop
// bound — directly or through a callee whose summary says so — plus
// which parameters flow into the return value. Guard facts follow the
// decodebound convention: any if/switch condition mentioning a variable
// sanitizes it, and so does passing it to a recognizably-named guard
// call (checkElements, checkChunkBytes, Validate, ...), which is how
// DecodeLimits enforcement is recognized across call boundaries.
//
// Struct fields are tracked field-sensitively (fields.go): stores into a
// named type's field accumulate per-function fieldWrites, the driver
// reduces them to a module-global fact table, and reads join the global
// fact back in — so a length parsed into Header.N in one function taints
// make(..., h.N) in another. Closure bodies are analyzed inline with the
// enclosing function's state as the captured-variable boundary (a literal
// handed to pool/stream plumbing executes with those variables), and
// their sinks are recorded as the enclosing function's events. Remaining
// opaque, by design: interface-method calls without a concrete target
// have no body to summarize (nopanic's conservative interface expansion
// does not apply here — a may-taint analysis expanding to every
// implementation would drown real findings in impossible ones).

// Mask layout: bits [0, ipMaxParams) are parameter bits, ipSeedBit marks
// decode-input-derived values, ipFieldBit marks values that flowed
// through a struct-field read (so the driver can tell field-mediated
// facts from the purely local ones decodebound already owns). Parameters
// beyond ipMaxParams get no bit (they silently lose interprocedural
// tracking; no module function comes close).
const ipMaxParams = 60

const (
	ipSeedBit  = uint64(1) << 62
	ipFieldBit = uint64(1) << 61
)

// ipParamMask covers every parameter bit.
const ipParamMask = uint64(1)<<ipMaxParams - 1

// ipMaxClosureDepth bounds nested closure inlining.
const ipMaxClosureDepth = 4

type ipKind uint8

const (
	ipAlloc ipKind = iota
	ipNarrow
	ipLoop
)

// ipSite is one hop of a witness chain: a call site (next != nil) or the
// offending sink expression itself (next == nil), inside function fn.
type ipSite struct {
	fn   string
	pos  token.Pos
	next *ipSite
}

// sink returns the chain's final site (the allocation/conversion/bound).
func (s *ipSite) sink() *ipSite {
	for s.next != nil {
		s = s.next
	}
	return s
}

// ipEvent is one sink reached by tainted data inside a function: mask
// says which taints can reach it (parameter bits and/or the seed bit),
// site is the witness chain from this function down to the sink, and
// closure marks sinks found inside an inlined function literal.
type ipEvent struct {
	kind    ipKind
	mask    uint64
	site    *ipSite
	closure bool
}

// ipSummary is the interprocedural abstract of one function.
type ipSummary struct {
	// retMask has parameter bit i set when parameter i may flow,
	// unsanitized, into a return value; retSeed marks returns carrying
	// decode-read input.
	retMask uint64
	retSeed bool
	// allocVia/narrowVia/loopVia map a parameter index to a witness
	// chain showing the parameter reaching an unguarded make/append
	// size, narrowing conversion, or loop bound.
	allocVia  map[int]*ipSite
	narrowVia map[int]*ipSite
	loopVia   map[int]*ipSite
	// events are all taint-reaches-sink facts observed in the body.
	events []ipEvent
	// fieldWrites joins, per module-stable field key (fields.go), the
	// masks this function may store into that field — directly, through
	// a composite literal, or through a callee (the callee's parameter
	// bits translated to this function's argument masks).
	fieldWrites map[string]uint64
	// fieldReads records the fields whose fact this function's analysis
	// consulted, so the driver can re-enqueue readers when a fact grows.
	fieldReads map[string]bool
}

func (s *ipSummary) via(k ipKind) map[int]*ipSite {
	switch k {
	case ipAlloc:
		return s.allocVia
	case ipNarrow:
		return s.narrowVia
	default:
		return s.loopVia
	}
}

// ipEqual reports whether two summaries agree on everything callers can
// observe (the fixed-point termination test). Witness chains are
// deliberately not compared: once a parameter's key is present any
// recorded chain is a valid witness. fieldReads is bookkeeping for the
// driver, not caller-observable, and is not compared either.
func ipEqual(a, b *ipSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.retMask != b.retMask || a.retSeed != b.retSeed {
		return false
	}
	if !masksEqual(a.fieldWrites, b.fieldWrites) {
		return false
	}
	for _, k := range []ipKind{ipAlloc, ipNarrow, ipLoop} {
		am, bm := a.via(k), b.via(k)
		if len(am) != len(bm) {
			return false
		}
		for i := range am {
			if bm[i] == nil {
				return false
			}
		}
	}
	return true
}

// funcUnit is one analyzable function declaration.
type funcUnit struct {
	id   string
	pkg  *Package
	decl *ast.FuncDecl
	// params lists receiver-then-parameters in signature order; an
	// unnamed parameter holds nil (its index still counts).
	params []types.Object
	// results lists the named result objects (for bare returns).
	results []types.Object
	// seedOK marks decode-context functions, in which decode-read calls
	// and byte-slice loads seed taint.
	seedOK bool

	cfg *cfg
}

func (u *funcUnit) cfgOf() *cfg {
	if u.cfg == nil {
		u.cfg = buildCFG(u.decl.Body)
	}
	return u.cfg
}

// paramBit returns parameter i's mask bit (0 when out of range).
func paramBit(i int) uint64 {
	if i < 0 || i >= ipMaxParams {
		return 0
	}
	return uint64(1) << i
}

// ipUnits indexes every library (non-test) function declaration in the
// module by its stable funcID.
func ipUnits(m *Module) map[string]*funcUnit {
	units := map[string]*funcUnit{}
	for _, pkg := range m.Packages {
		if strings.HasSuffix(pkg.ImportPath, "_test") {
			continue
		}
		for _, f := range pkg.Files {
			if pkg.IsTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				def, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				u := &funcUnit{
					id:     funcID(def),
					pkg:    pkg,
					decl:   fd,
					seedOK: decodeCtxRe.MatchString(fd.Name.Name),
				}
				addParams := func(fl *ast.FieldList) {
					if fl == nil {
						return
					}
					for _, field := range fl.List {
						if len(field.Names) == 0 {
							u.params = append(u.params, nil)
							continue
						}
						for _, name := range field.Names {
							u.params = append(u.params, pkg.Info.Defs[name])
						}
					}
				}
				addParams(fd.Recv)
				addParams(fd.Type.Params)
				if fd.Type.Results != nil {
					for _, field := range fd.Type.Results.List {
						for _, name := range field.Names {
							if o := pkg.Info.Defs[name]; o != nil {
								u.results = append(u.results, o)
							}
						}
					}
				}
				units[u.id] = u
			}
		}
	}
	return units
}

// --- mask dataflow ------------------------------------------------------

// maskState maps each local variable to the taint masks that may have
// flowed into it.
type maskState map[types.Object]uint64

func (s maskState) clone() maskState {
	c := make(maskState, len(s))
	for o, m := range s {
		c[o] = m
	}
	return c
}

func (s maskState) equal(t maskState) bool {
	if len(s) != len(t) {
		return false
	}
	for o, m := range s {
		if t[o] != m {
			return false
		}
	}
	return true
}

// maskFlow runs the iterative forward may-analysis (join = per-variable
// bitwise OR) to fixpoint and returns each reachable block's entry state.
func (g *cfg) maskFlow(boundary maskState, transfer func(b *cfgBlock, in maskState) maskState) map[*cfgBlock]maskState {
	rpo := g.reversePostorder()
	in := map[*cfgBlock]maskState{}
	out := map[*cfgBlock]maskState{}
	for changed := true; changed; {
		changed = false
		for _, blk := range rpo {
			var s maskState
			if blk == g.entry {
				s = boundary.clone()
			} else {
				s = maskState{}
				for _, p := range blk.preds {
					for o, m := range out[p] {
						s[o] |= m
					}
				}
			}
			prev, seen := in[blk]
			if seen && prev.equal(s) {
				continue
			}
			in[blk] = s
			out[blk] = transfer(blk, s.clone())
			changed = true
		}
	}
	return in
}

// --- shared transfer plumbing (used by ip and boundconst evaluators) ----

// maskSetLHS records mask m for one assignment target: strong update for
// plain assignments to simple locals, weak (OR) update for compound
// assignments and stores through an index expression.
func maskSetLHS(info *types.Info, s maskState, l ast.Expr, m uint64, keep bool) {
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		o := objOf(info, l)
		v, ok := o.(*types.Var)
		if !ok || v.IsField() {
			return
		}
		switch {
		case keep:
			s[o] |= m
		case m != 0:
			s[o] = m
		default:
			delete(s, o)
		}
	case *ast.IndexExpr:
		if m != 0 {
			if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
				if o := objOf(info, id); o != nil {
					s[o] |= m
				}
			}
		}
	}
}

// maskAssign transfers an assignment statement.
func maskAssign(info *types.Info, s maskState, n *ast.AssignStmt, maskOf func(maskState, ast.Expr) uint64) {
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			if m := maskOf(s, n.Rhs[0]); m != 0 {
				maskSetLHS(info, s, n.Lhs[0], m, true)
			}
		}
		return
	}
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		m := maskOf(s, n.Rhs[0])
		for _, l := range n.Lhs {
			maskSetLHS(info, s, l, m, false)
		}
		return
	}
	for i, l := range n.Lhs {
		if i < len(n.Rhs) {
			maskSetLHS(info, s, l, maskOf(s, n.Rhs[i]), false)
		}
	}
}

// maskDeclare transfers a var declaration statement.
func maskDeclare(info *types.Info, s maskState, n *ast.DeclStmt, maskOf func(maskState, ast.Expr) uint64) {
	gd, ok := n.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) == 0 {
			continue
		}
		for i, name := range vs.Names {
			var m uint64
			if len(vs.Values) == len(vs.Names) {
				m = maskOf(s, vs.Values[i])
			} else {
				m = maskOf(s, vs.Values[0])
			}
			maskSetLHS(info, s, name, m, false)
		}
	}
}

// staticCallee resolves a call's target to a *types.Func when the callee
// is an identifier or selector (direct calls and method calls); function
// values and interface methods without a concrete target return the
// abstract method, func-typed variables return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// calleeBaseName is the bare callee name used for the seed/guard regexps.
func calleeBaseName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// isConversion reports whether the call is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// builtinName returns the name of a builtin callee ("" otherwise).
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, isBuiltin := objOf(info, id).(*types.Builtin); isBuiltin {
		return id.Name
	}
	return ""
}

// ipGuardRe names the calls whose arguments count as range-validated:
// the DecodeLimits checkers (checkElements, checkChunkBytes, checkFields,
// CheckHeader, ...) and Validate-style helpers. The leading capital after
// the prefix keeps crc32.Checksum and friends out.
var ipGuardRe = regexp.MustCompile(`^[Cc]heck[A-Z0-9_]|^[Vv]alid(ate)?([A-Z0-9_]|$)`)

// --- per-function analysis ----------------------------------------------

// ipEval computes one function's summary.
type ipEval struct {
	u      *funcUnit
	info   *types.Info
	sums   map[string]*ipSummary
	fields *fieldFacts
	sum    *ipSummary
	evIdx  map[uint64]int // (kind, sink pos) -> index into sum.events
	depth  int            // closure nesting depth (0 = the declared body)
}

// ipAnalyze runs the mask-taint analysis over u's body using the current
// callee summaries and the module-global field facts, and returns a
// fresh summary.
func ipAnalyze(u *funcUnit, sums map[string]*ipSummary, fields *fieldFacts) *ipSummary {
	ev := &ipEval{
		u:      u,
		info:   u.pkg.Info,
		sums:   sums,
		fields: fields,
		sum: &ipSummary{
			allocVia:    map[int]*ipSite{},
			narrowVia:   map[int]*ipSite{},
			loopVia:     map[int]*ipSite{},
			fieldWrites: map[string]uint64{},
			fieldReads:  map[string]bool{},
		},
		evIdx: map[uint64]int{},
	}
	boundary := maskState{}
	for i, p := range u.params {
		if p != nil && paramBit(i) != 0 {
			boundary[p] = paramBit(i)
		}
	}
	g := u.cfgOf()
	// Field slots are flow-insensitive, so a read the pass visits early
	// can depend on a store it has not reached yet: iterate the whole
	// propagate+report pipeline until the function's field-write set
	// stops growing. Masks only grow, so this terminates (the cap is a
	// backstop). Events deduplicate by sink, so re-reporting only joins
	// masks.
	for iter := 0; iter < 8; iter++ {
		before := cloneMasks(ev.sum.fieldWrites)
		in := g.maskFlow(boundary, func(b *cfgBlock, s maskState) maskState {
			for _, n := range b.nodes {
				ev.step(s, n, false)
			}
			return s
		})
		for _, b := range g.reversePostorder() {
			s, ok := in[b]
			if !ok {
				continue
			}
			s = s.clone()
			for _, n := range b.nodes {
				ev.step(s, n, true)
			}
		}
		if masksEqual(before, ev.sum.fieldWrites) {
			break
		}
	}
	finishIPSummary(ev.sum)
	return ev.sum
}

// finishIPSummary derives the per-parameter witness maps from the
// recorded events. Event masks only
// carry bits of parameters that exist, so iterating the full bit range
// is equivalent to iterating the parameter list.
func finishIPSummary(sum *ipSummary) {
	for _, e := range sum.events {
		via := sum.via(e.kind)
		for i := 0; i < ipMaxParams; i++ {
			if e.mask&paramBit(i) != 0 && via[i] == nil {
				via[i] = e.site
			}
		}
	}
}

// step applies node n to state s; in the report pass it first records
// sink events against the pre-state (mirroring decodebound's two-pass
// structure) and then inlines any function literals the node evaluates.
func (ev *ipEval) step(s maskState, n ast.Node, report bool) {
	if !report {
		ev.callFieldEffects(s, n)
	}
	switch n := n.(type) {
	case guardCond:
		if report {
			ev.checkSinks(s, n)
		}
		ev.sanitize(s, n.Expr)
	case loopCond:
		if report {
			ev.checkLoopBound(s, n.Expr)
			ev.checkSinks(s, n)
		}
		ev.sanitize(s, n.Expr)
	case *ast.AssignStmt:
		if report {
			ev.checkSinks(s, n)
			ev.closures(s, n)
		}
		ev.guardCalls(s, n)
		fieldStores(ev.info, s, n, ev.maskOf, ev.recordFieldWrite)
		maskAssign(ev.info, s, n, ev.maskOf)
	case *ast.DeclStmt:
		if report {
			ev.checkSinks(s, n)
			ev.closures(s, n)
		}
		ev.guardCalls(s, n)
		maskDeclare(ev.info, s, n, ev.maskOf)
	case *ast.RangeStmt:
		if report {
			ev.checkSinks(s, n)
		}
		ev.rangeBind(s, n)
	case *ast.ReturnStmt:
		if report {
			ev.checkSinks(s, n)
			ev.closures(s, n)
			ev.collectReturn(s, n)
		}
		ev.guardCalls(s, n)
	default:
		if report {
			ev.checkSinks(s, n)
			ev.closures(s, n)
		}
		ev.guardCalls(s, n)
	}
}

// recordFieldWrite joins mask m into the summary's slot for field fid.
// The field-read marker is stripped: it tags read origins, not stored
// values.
func (ev *ipEval) recordFieldWrite(fid string, m uint64, pos token.Pos) {
	_ = pos // the taint layer does not keep store sites; boundconst does
	if m &= ^ipFieldBit; m != 0 {
		ev.sum.fieldWrites[fid] |= m
	}
}

// callFieldEffects folds a summarized callee's field writes into the
// caller: the callee's parameter bits translate through the call's
// argument masks, so a setter that stores its argument into a struct
// field taints that field with whatever each caller passes (method
// receivers translate the same way, as parameter 0).
func (ev *ipEval) callFieldEffects(s maskState, n ast.Node) {
	inspectEvaluated(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok || isConversion(ev.info, call) || builtinName(ev.info, call) != "" {
			return true
		}
		fn := staticCallee(ev.info, call)
		if fn == nil {
			return true
		}
		cs := ev.sums[funcID(fn)]
		if cs == nil || len(cs.fieldWrites) == 0 {
			return true
		}
		am := ev.argMasks(s, call, fn)
		for fid, fm := range cs.fieldWrites {
			t := fm &^ ipParamMask // seed and class bits pass through as-is
			for j, a := range am {
				if fm&paramBit(j) != 0 {
					t |= a
				}
			}
			ev.recordFieldWrite(fid, t, call.Pos())
		}
		return true
	})
}

// closures analyzes the function literals node n evaluates, with the
// current state as the captured-variable boundary: a literal handed to
// pool/stream plumbing (or started by go/defer, or invoked in place)
// executes with the enclosing function's variables, so its sinks are the
// enclosing function's sinks. Parameters of immediately invoked literals
// (including go/defer calls) bind to the call's argument masks; literals
// passed as values get unbound parameters.
func (ev *ipEval) closures(s maskState, n ast.Node) {
	var visit func(x ast.Node) bool
	visit = func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				args := make([]uint64, len(x.Args))
				for i, a := range x.Args {
					args[i] = ev.maskOf(s, a)
					ast.Inspect(a, visit)
				}
				ev.analyzeFuncLit(s, lit, args)
				return false
			}
		case *ast.FuncLit:
			ev.analyzeFuncLit(s, x, nil)
			return false
		}
		return true
	}
	n = unwrapCond(n)
	if r, ok := n.(*ast.RangeStmt); ok {
		// Only the range operand is evaluated here; the body lives in
		// successor blocks.
		ast.Inspect(r.X, visit)
		return
	}
	ast.Inspect(n, visit)
}

// analyzeFuncLit runs the full propagate+report pipeline over a function
// literal's body. Captured variables keep their masks from the enclosing
// state (object identities hold across the closure boundary within one
// unit); the literal's own parameters bind to args when provided.
func (ev *ipEval) analyzeFuncLit(s maskState, lit *ast.FuncLit, args []uint64) {
	if ev.depth >= ipMaxClosureDepth || lit.Body == nil {
		return
	}
	boundary := s.clone()
	i := 0
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			if len(f.Names) == 0 {
				i++
				continue
			}
			for _, name := range f.Names {
				if o := ev.info.Defs[name]; o != nil {
					var m uint64
					if i < len(args) {
						m = args[i]
					}
					if m != 0 {
						boundary[o] = m
					} else {
						delete(boundary, o)
					}
				}
				i++
			}
		}
	}
	ev.depth++
	defer func() { ev.depth-- }()
	g := buildCFG(lit.Body)
	in := g.maskFlow(boundary, func(b *cfgBlock, st maskState) maskState {
		for _, nd := range b.nodes {
			ev.step(st, nd, false)
		}
		return st
	})
	for _, b := range g.reversePostorder() {
		st, ok := in[b]
		if !ok {
			continue
		}
		st = st.clone()
		for _, nd := range b.nodes {
			ev.step(st, nd, true)
		}
	}
}

// sanitize clears every variable the guard expression mentions.
func (ev *ipEval) sanitize(s maskState, e ast.Expr) {
	inspectNoFuncLit(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := objOf(ev.info, id); o != nil {
				delete(s, o)
			}
		}
		return true
	})
}

// guardCalls sanitizes the arguments of recognized guard calls appearing
// anywhere in n: `if err := limits.checkElements(n); ...` validates n for
// the rest of the function, which is how the DecodeLimits methods and
// grid.Validate register as guards.
func (ev *ipEval) guardCalls(s maskState, n ast.Node) {
	inspectEvaluated(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok || isConversion(ev.info, call) {
			return true
		}
		if !ipGuardRe.MatchString(calleeBaseName(call)) {
			return true
		}
		for _, a := range call.Args {
			ev.sanitize(s, a)
		}
		return true
	})
}

// rangeBind transfers a range statement's key/value binding.
func (ev *ipEval) rangeBind(s maskState, n *ast.RangeStmt) {
	m := ev.maskOf(s, n.X)
	if ev.u.seedOK && isByteSeq(typeOf(ev.info, n.X)) {
		m |= ipSeedBit
	}
	if n.Value != nil {
		maskSetLHS(ev.info, s, n.Value, m, false)
	}
	if n.Key != nil {
		maskSetLHS(ev.info, s, n.Key, 0, false)
	}
}

// collectReturn folds a return statement into retMask/retSeed. Returns
// inside an inlined closure are the literal's, not the enclosing
// function's, and are skipped.
func (ev *ipEval) collectReturn(s maskState, n *ast.ReturnStmt) {
	if ev.depth > 0 {
		return
	}
	var m uint64
	if len(n.Results) == 0 {
		for _, o := range ev.u.results {
			m |= s[o]
		}
	} else {
		for _, e := range n.Results {
			m |= ev.maskOf(s, e)
		}
	}
	ev.sum.retMask |= m &^ (ipSeedBit | ipFieldBit)
	if m&ipSeedBit != 0 {
		ev.sum.retSeed = true
	}
}

// maskOf evaluates an expression's taint mask under state s.
func (ev *ipEval) maskOf(s maskState, e ast.Expr) uint64 {
	if tv, ok := ev.info.Types[e]; ok && tv.Value != nil {
		return 0
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return ev.maskOf(s, e.X)
	case *ast.Ident:
		if o := objOf(ev.info, e); o != nil {
			return s[o]
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND, token.LOR, token.EQL, token.NEQ,
			token.LSS, token.LEQ, token.GTR, token.GEQ:
			return 0 // boolean results carry no size/index taint
		case token.AND, token.REM:
			// Masking / remainder with an untainted operand bounds the
			// value: sanitized.
			x, y := ev.maskOf(s, e.X), ev.maskOf(s, e.Y)
			if x != 0 && y != 0 {
				return x | y
			}
			return 0
		default:
			return ev.maskOf(s, e.X) | ev.maskOf(s, e.Y)
		}
	case *ast.UnaryExpr:
		return ev.maskOf(s, e.X)
	case *ast.StarExpr:
		return ev.maskOf(s, e.X)
	case *ast.CallExpr:
		return ev.callMask(s, e)
	case *ast.IndexExpr:
		m := ev.maskOf(s, e.X)
		if ev.u.seedOK && isByteSeq(typeOf(ev.info, e.X)) {
			m |= ipSeedBit // raw load from the encoded buffer
		}
		return m
	case *ast.SliceExpr:
		return ev.maskOf(s, e.X)
	case *ast.TypeAssertExpr:
		return ev.maskOf(s, e.X)
	case *ast.SelectorExpr:
		// Field read: the base value's own taint propagates, joined with
		// everything stored into the field locally or module-wide. The
		// marker bit tells the driver the flow crossed a field.
		m := ev.maskOf(s, e.X)
		if fid := fieldIDOf(ev.info, e); fid != "" {
			ev.sum.fieldReads[fid] = true
			if fm := ev.sum.fieldWrites[fid] | ev.fields.masks[fid]; fm != 0 {
				m |= fm | ipFieldBit
			}
		}
		return m
	case *ast.CompositeLit:
		// The literal's element masks land in the field slots; the
		// struct value itself carries no size/index taint.
		compositeFieldStores(ev.info, s, e, ev.maskOf, ev.recordFieldWrite)
		return 0
	}
	// Anonymous-struct fields and func literals as values: untracked.
	return 0
}

// callMask evaluates a call expression's result mask: conversions pass
// taint through, decode-read calls seed it, and calls with a summarized
// callee map argument masks through the callee's return facts.
func (ev *ipEval) callMask(s maskState, call *ast.CallExpr) uint64 {
	if isConversion(ev.info, call) && len(call.Args) == 1 {
		return ev.maskOf(s, call.Args[0])
	}
	if b := builtinName(ev.info, call); b != "" {
		if b == "append" {
			var m uint64
			for _, a := range call.Args {
				m |= ev.maskOf(s, a)
			}
			return m
		}
		return 0 // len/cap of real memory are trusted sizes
	}
	name := calleeBaseName(call)
	if ipGuardRe.MatchString(name) {
		return 0
	}
	var m uint64
	if ev.u.seedOK && seedCallRe.MatchString(name) {
		m |= ipSeedBit
	}
	fn := staticCallee(ev.info, call)
	if fn == nil {
		return m
	}
	cs := ev.sums[funcID(fn)]
	if cs == nil {
		return m
	}
	if cs.retSeed {
		m |= ipSeedBit
	}
	for j, am := range ev.argMasks(s, call, fn) {
		if am != 0 && cs.retMask&paramBit(j) != 0 {
			m |= am
		}
	}
	return m
}

// argMasks maps the call's argument masks onto the callee's parameter
// indices (receiver first, variadic arguments folded onto the last
// parameter).
func (ev *ipEval) argMasks(s maskState, call *ast.CallExpr, fn *types.Func) []uint64 {
	return callArgMasks(ev.info, s, call, fn, ev.maskOf)
}

// callArgMasks is the evaluator-independent argument-to-parameter mask
// mapping shared by the taint and bound-constant analyses.
func callArgMasks(info *types.Info, s maskState, call *ast.CallExpr, fn *types.Func, maskOf func(maskState, ast.Expr) uint64) []uint64 {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	nRecv := 0
	if sig.Recv() != nil {
		nRecv = 1
	}
	n := nRecv + sig.Params().Len()
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	if nRecv == 1 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s2, ok := info.Selections[sel]; ok && s2.Kind() == types.MethodVal {
				out[0] = maskOf(s, sel.X)
			}
		}
	}
	for i, a := range call.Args {
		j := nRecv + i
		if sig.Variadic() && j >= n-1 {
			j = n - 1
		}
		if j < n {
			out[j] |= maskOf(s, a)
		}
	}
	return out
}

// here starts a witness chain at pos inside the current function.
func (ev *ipEval) here(pos token.Pos, next *ipSite) *ipSite {
	return &ipSite{fn: ev.u.id, pos: pos, next: next}
}

// event records a taint-reaches-sink fact, merging masks for events that
// share a sink.
func (ev *ipEval) event(kind ipKind, mask uint64, site *ipSite) {
	if mask == 0 || site == nil {
		return
	}
	key := uint64(site.sink().pos)<<2 | uint64(kind)
	if i, ok := ev.evIdx[key]; ok {
		ev.sum.events[i].mask |= mask
		ev.sum.events[i].closure = ev.sum.events[i].closure || ev.depth > 0
		return
	}
	ev.evIdx[key] = len(ev.sum.events)
	ev.sum.events = append(ev.sum.events, ipEvent{kind: kind, mask: mask, site: site, closure: ev.depth > 0})
}

// checkSinks walks the expressions node n evaluates and records the taint
// sinks: make/append-growth sizes, narrowing integer conversions, and
// calls whose summarized callee lets an argument reach such a sink.
func (ev *ipEval) checkSinks(s maskState, n ast.Node) {
	inspectEvaluated(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isConversion(ev.info, call) {
			ev.checkNarrowing(s, call)
			return true
		}
		switch builtinName(ev.info, call) {
		case "make":
			for _, a := range call.Args[1:] {
				if m := ev.maskOf(s, a); m != 0 {
					ev.event(ipAlloc, m, ev.here(a.Pos(), nil))
				}
			}
			return true
		case "append":
			// append(s, x...) grows by an input-controlled element count.
			if call.Ellipsis.IsValid() && len(call.Args) > 0 {
				last := call.Args[len(call.Args)-1]
				if m := ev.maskOf(s, last); m != 0 {
					ev.event(ipAlloc, m, ev.here(last.Pos(), nil))
				}
			}
			return true
		case "":
		default:
			return true
		}
		fn := staticCallee(ev.info, call)
		if fn == nil {
			return true
		}
		cs := ev.sums[funcID(fn)]
		if cs == nil {
			return true
		}
		for j, am := range ev.argMasks(s, call, fn) {
			if am == 0 {
				continue
			}
			for _, k := range []ipKind{ipAlloc, ipNarrow, ipLoop} {
				if st := cs.via(k)[j]; st != nil {
					ev.event(k, am, ev.here(call.Pos(), st))
				}
			}
		}
		return true
	})
}

// checkNarrowing records a narrowing integer conversion fed by tainted
// data (the interprocedural intnarrow sink).
func (ev *ipEval) checkNarrowing(s maskState, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := ev.info.Types[call.Fun]
	if !ok {
		return
	}
	dst := intValueBits(tv.Type)
	if dst < 0 {
		return
	}
	arg := call.Args[0]
	atv, ok := ev.info.Types[arg]
	if !ok || atv.Value != nil || intValueBits(atv.Type) < 0 {
		return
	}
	if maxBitsOf(ev.info, arg) <= dst {
		return
	}
	if m := ev.maskOf(s, arg); m != 0 {
		ev.event(ipNarrow, m, ev.here(call.Pos(), nil))
	}
}

// checkLoopBound records a for-condition whose every comparison involves
// tainted data (same rule as decodebound: one clean comparison bounds the
// loop), anchored at the offending comparison.
func (ev *ipEval) checkLoopBound(s maskState, cond ast.Expr) {
	var cmps []*ast.BinaryExpr
	var flatten func(e ast.Expr)
	flatten = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			switch e.Op {
			case token.LAND, token.LOR:
				flatten(e.X)
				flatten(e.Y)
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ, token.EQL:
				cmps = append(cmps, e)
			}
		}
	}
	flatten(cond)
	var mask uint64
	var first *ast.BinaryExpr
	anyClean := false
	for _, c := range cmps {
		m := ev.maskOf(s, c.X) | ev.maskOf(s, c.Y)
		if m != 0 {
			mask |= m
			if first == nil {
				first = c
			}
		} else {
			anyClean = true
		}
	}
	if first != nil && !anyClean {
		ev.event(ipLoop, mask, ev.here(first.Pos(), nil))
	}
}
