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
// calls, raw byte-slice loads). Joins are bitwise OR, so the per-function
// analysis and the bottom-up propagation over the call graph are both
// monotone and terminate.
//
// A summary records, for each parameter, whether it can reach an
// unguarded narrowing integer conversion — directly or through a callee
// whose summary says so — plus which parameters flow into the return
// value. Any if/switch condition mentioning a variable sanitizes it, and
// so does passing it to a recognizably-named guard call (checkElements,
// checkChunkBytes, Validate, ...), which is how DecodeLimits enforcement
// is recognized across call boundaries.
//
// Remaining opaque, by design: struct fields carry only their base
// value's taint, function literal bodies are not analyzed, and
// interface-method calls without a concrete target have no body to
// summarize (a may-taint analysis expanding to every implementation would
// drown real findings in impossible ones).

// Mask layout: bits [0, ipMaxParams) are parameter bits and ipSeedBit
// marks decode-input-derived values. Parameters beyond ipMaxParams get no
// bit (they silently lose interprocedural tracking; no module function
// comes close).
const ipMaxParams = 60

const ipSeedBit = uint64(1) << 62

// decodeCtxRe names the functions whose bodies consume untrusted encoded
// input.
var decodeCtxRe = regexp.MustCompile(`^(Decompress|decompress|Decode|decode|Parse|parse|Open|open|Read|read|Load|load|Peek|peek|Unmarshal|unmarshal|next|Uvarint|Varint)`)

// seedCallRe names the callee methods/functions whose results carry raw
// decoded input.
var seedCallRe = regexp.MustCompile(`^(Uvarint|Varint|ReadBit|ReadBits|ReadBool|ReadByte|ReadFull|ReadUvarint|ReadVarint|PeekBits|DecodeBits|DecodeSymbol|Uint16|Uint32|Uint64|next)$`)

// ipSite is one hop of a witness chain: a call site (next != nil) or the
// offending sink expression itself (next == nil), inside function fn.
type ipSite struct {
	fn   string
	pos  token.Pos
	next *ipSite
}

// sink returns the chain's final site (the narrowing conversion).
func (s *ipSite) sink() *ipSite {
	for s.next != nil {
		s = s.next
	}
	return s
}

// ipEvent is one narrowing conversion reached by tainted data inside a
// function: mask says which taints can reach it (parameter bits and/or
// the seed bit), site is the witness chain from this function down to
// the sink.
type ipEvent struct {
	mask uint64
	site *ipSite
}

// ipSummary is the interprocedural abstract of one function.
type ipSummary struct {
	// retMask has parameter bit i set when parameter i may flow,
	// unsanitized, into a return value; retSeed marks returns carrying
	// decode-read input.
	retMask uint64
	retSeed bool
	// narrowVia maps a parameter index to a witness chain showing the
	// parameter reaching an unguarded narrowing conversion.
	narrowVia map[int]*ipSite
	// events are all taint-reaches-sink facts observed in the body.
	events []ipEvent
}

// ipEqual reports whether two summaries agree on everything callers can
// observe (the fixed-point termination test). Witness chains are
// deliberately not compared: once a parameter's key is present any
// recorded chain is a valid witness.
func ipEqual(a, b *ipSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.retMask != b.retMask || a.retSeed != b.retSeed {
		return false
	}
	if len(a.narrowVia) != len(b.narrowVia) {
		return false
	}
	for i := range a.narrowVia {
		if b.narrowVia[i] == nil {
			return false
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

// setLHS records mask m for one assignment target: strong update for
// plain assignments to simple locals, weak (OR) update for compound
// assignments and stores through an index expression.
func (ev *ipEval) setLHS(s maskState, l ast.Expr, m uint64, keep bool) {
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		o := objOf(ev.info, l)
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
				if o := objOf(ev.info, id); o != nil {
					s[o] |= m
				}
			}
		}
	}
}

// assign transfers an assignment statement.
func (ev *ipEval) assign(s maskState, n *ast.AssignStmt) {
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			if m := ev.maskOf(s, n.Rhs[0]); m != 0 {
				ev.setLHS(s, n.Lhs[0], m, true)
			}
		}
		return
	}
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		m := ev.maskOf(s, n.Rhs[0])
		for _, l := range n.Lhs {
			ev.setLHS(s, l, m, false)
		}
		return
	}
	for i, l := range n.Lhs {
		if i < len(n.Rhs) {
			ev.setLHS(s, l, ev.maskOf(s, n.Rhs[i]), false)
		}
	}
}

// declare transfers a var declaration statement.
func (ev *ipEval) declare(s maskState, n *ast.DeclStmt) {
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
				m = ev.maskOf(s, vs.Values[i])
			} else {
				m = ev.maskOf(s, vs.Values[0])
			}
			ev.setLHS(s, name, m, false)
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

// isByteSeq reports whether t is a byte slice or byte array.
func isByteSeq(t types.Type) bool {
	if t == nil {
		return false
	}
	var elem types.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	default:
		return false
	}
	b, ok := elem.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// ipGuardRe names the calls whose arguments count as range-validated:
// the DecodeLimits checkers (checkElements, checkChunkBytes, checkFields,
// CheckHeader, ...) and Validate-style helpers. The leading capital after
// the prefix keeps crc32.Checksum and friends out.
var ipGuardRe = regexp.MustCompile(`^[Cc]heck[A-Z0-9_]|^[Vv]alid(ate)?([A-Z0-9_]|$)`)

// --- per-function analysis ----------------------------------------------

// ipEval computes one function's summary.
type ipEval struct {
	u     *funcUnit
	info  *types.Info
	sums  map[string]*ipSummary
	sum   *ipSummary
	evIdx map[token.Pos]int // sink pos -> index into sum.events
}

// ipAnalyze runs the mask-taint analysis over u's body using the current
// callee summaries and returns a fresh summary.
func ipAnalyze(u *funcUnit, sums map[string]*ipSummary) *ipSummary {
	ev := &ipEval{
		u:     u,
		info:  u.pkg.Info,
		sums:  sums,
		sum:   &ipSummary{narrowVia: map[int]*ipSite{}},
		evIdx: map[token.Pos]int{},
	}
	boundary := maskState{}
	for i, p := range u.params {
		if p != nil && paramBit(i) != 0 {
			boundary[p] = paramBit(i)
		}
	}
	g := u.cfgOf()
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
	// Event masks only carry bits of parameters that exist, so iterating
	// the full bit range is equivalent to iterating the parameter list.
	for _, e := range ev.sum.events {
		for i := 0; i < ipMaxParams; i++ {
			if e.mask&paramBit(i) != 0 && ev.sum.narrowVia[i] == nil {
				ev.sum.narrowVia[i] = e.site
			}
		}
	}
	return ev.sum
}

// step applies node n to state s; in the report pass it first records
// sink events against the pre-state.
func (ev *ipEval) step(s maskState, n ast.Node, report bool) {
	if report {
		ev.checkSinks(s, n)
	}
	switch n := n.(type) {
	case guardCond:
		ev.sanitize(s, n.Expr)
	case *ast.AssignStmt:
		ev.guardCalls(s, n)
		ev.assign(s, n)
	case *ast.DeclStmt:
		ev.guardCalls(s, n)
		ev.declare(s, n)
	case *ast.RangeStmt:
		ev.rangeBind(s, n)
	case *ast.ReturnStmt:
		if report {
			ev.collectReturn(s, n)
		}
		ev.guardCalls(s, n)
	default:
		ev.guardCalls(s, n)
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
		ev.setLHS(s, n.Value, m, false)
	}
	if n.Key != nil {
		ev.setLHS(s, n.Key, 0, false)
	}
}

// collectReturn folds a return statement into retMask/retSeed.
func (ev *ipEval) collectReturn(s maskState, n *ast.ReturnStmt) {
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
	ev.sum.retMask |= m &^ ipSeedBit
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
		// Field read: the base value's own taint propagates.
		return ev.maskOf(s, e.X)
	}
	// Composite and func literals as values: untracked.
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
			if s2, ok := ev.info.Selections[sel]; ok && s2.Kind() == types.MethodVal {
				out[0] = ev.maskOf(s, sel.X)
			}
		}
	}
	for i, a := range call.Args {
		j := nRecv + i
		if sig.Variadic() && j >= n-1 {
			j = n - 1
		}
		if j < n {
			out[j] |= ev.maskOf(s, a)
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
func (ev *ipEval) event(mask uint64, site *ipSite) {
	if mask == 0 || site == nil {
		return
	}
	key := site.sink().pos
	if i, ok := ev.evIdx[key]; ok {
		ev.sum.events[i].mask |= mask
		return
	}
	ev.evIdx[key] = len(ev.sum.events)
	ev.sum.events = append(ev.sum.events, ipEvent{mask: mask, site: site})
}

// checkSinks walks the expressions node n evaluates and records the taint
// sinks: narrowing integer conversions, and calls whose summarized callee
// lets an argument reach one.
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
		if builtinName(ev.info, call) != "" {
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
			if st := cs.narrowVia[j]; am != 0 && st != nil {
				ev.event(am, ev.here(call.Pos(), st))
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
		ev.event(m, ev.here(call.Pos(), nil))
	}
}
