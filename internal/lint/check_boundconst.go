package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// boundconstCheck verifies the Lemma-2 plumbing: an error-bound value
// that reaches a quantizer sink (internal/quant, internal/sz,
// internal/zfp bound parameters) must not be the raw mapped bound
// log2(1+b_r) — it has to pass through the round-off tightening
// b'_a = log2(1+b_r) − c·max|log2 x|·ε₀ first, or the quantizer's
// guarantee is off by exactly the floating-point error Lemma 2 accounts
// for.
//
// The analysis is a constant-provenance lattice over the same mask
// machinery as summary.go: a value is classified RAW when it is the
// result of a log(1+x) pattern, TIGHT once a subtraction (or a
// multiplication by a constant below 1, the slack form) is applied, and
// parameter bits track a bound flowing through helper functions so the
// check works across calls — a helper that forwards its parameter into a
// quantizer makes every caller passing a raw bound a finding, with the
// call chain in the message. A value that is RAW on one path and TIGHT
// on another joins to both bits and is not reported (the ablation knob
// DisableRoundoffGuard deliberately creates such joins).
//
// Struct fields are tracked field-sensitively (fields.go): a bound
// stored into a named type's field (core.Transformed.AbsBound) keeps its
// class, the store's site becomes the head of the witness chain, and a
// read anywhere in the module joins the global fact back in. Compound
// assignments (b -= margin) deliberately do NOT tighten the field or
// variable: the evaluator cannot tell the Lemma-2 margin from any other
// subtrahend there, and the DisableRoundoffGuard ablation makes the raw
// store real — the audited //lint:allow at the store site is the signed
// waiver for that path.
type boundconstCheck struct{}

func (boundconstCheck) Name() string { return "boundconst" }
func (boundconstCheck) Doc() string {
	return "flag raw log2(1+b) error bounds reaching quantizer sinks without the Lemma-2 round-off tightening"
}

// Class bits live above the parameter bits, like ipSeedBit.
const (
	bcRawBit   = uint64(1) << 62
	bcTightBit = uint64(1) << 63
)

// bcLogRe names the logarithm callees whose log(1+x) result is the raw
// mapped bound.
var bcLogRe = regexp.MustCompile(`^([Ll]og2|[Ll]og10|[Ll]og)$`)

// bcSinkPkgs are the packages whose exported bound parameters are sinks.
var bcSinkPkgs = map[string]bool{"quant": true, "sz": true, "zfp": true}

// bcSinkNameRe makes fixture (and future helper) sinks recognizable by
// name when they live outside the quantizer packages.
var bcSinkNameRe = regexp.MustCompile(`^(Quantize|NewQuantizer|CompressAbs|CompressAccuracy)`)

// bcParamRe matches the bound-carrying parameter names at a sink.
var bcParamRe = regexp.MustCompile(`(?i)bound|tol|eps|acc`)

// bcSummary is the bound-provenance abstract of one function: retMask
// carries the class bits and untightened parameter bits of the return
// value, sinkVia maps a parameter index to a witness chain showing the
// parameter reaching a bound sink untightened. fieldWrites carries the
// class and parameter bits stored into each struct field, fieldSites the
// first store site per field (the head of field-origin witness chains),
// and fieldReads which module-global field facts this analysis consulted
// (for fixpoint re-enqueueing, not part of the observable summary).
type bcSummary struct {
	retMask     uint64
	sinkVia     map[int]*ipSite
	events      []*ipSite // raw-bound-reaches-sink witnesses, sink last
	fieldWrites map[string]uint64
	fieldSites  map[string]*ipSite
	fieldReads  map[string]bool
}

func bcEqual(a, b *bcSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.retMask != b.retMask || len(a.sinkVia) != len(b.sinkVia) {
		return false
	}
	for i := range a.sinkVia {
		if b.sinkVia[i] == nil {
			return false
		}
	}
	return masksEqual(a.fieldWrites, b.fieldWrites)
}

// boundconst builds (once) and returns the module's bound-provenance
// result.
func (m *Module) boundconst() map[string]*bcSummary {
	m.bcOnce.Do(func() { m.bc = buildBoundconst(m) })
	return m.bc
}

func buildBoundconst(m *Module) map[string]*bcSummary {
	r := m.interproc() // reuse the function index
	g := m.Graph()

	callers := map[string][]string{}
	for from, tos := range g.edges {
		if r.units[from] == nil {
			continue
		}
		seen := map[string]bool{}
		for _, to := range tos {
			if r.units[to] != nil && !seen[to] {
				seen[to] = true
				callers[to] = append(callers[to], from)
			}
		}
	}
	for _, cs := range callers {
		sort.Strings(cs)
	}

	// fields is the module-global bound-class table: the class bits
	// stored into each struct field anywhere, with the first store's
	// witness site. Unlike the taint layer, class bits globalize
	// directly — a raw bound in a field is raw no matter who wrote it.
	fields := newFieldFacts()
	sums := map[string]*bcSummary{}
	var queue []string
	inQueue := map[string]bool{}
	enqueue := func(id string) {
		if !inQueue[id] && r.units[id] != nil {
			inQueue[id] = true
			queue = append(queue, id)
		}
	}
	enqueueReaders := func(fid string) {
		ids := make([]string, 0, len(sums))
		for id := range sums {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if s := sums[id]; s != nil && s.fieldReads[fid] {
				enqueue(id)
			}
		}
	}
	globalize := func(id string, sum *bcSummary) {
		fids := make([]string, 0, len(sum.fieldWrites))
		for fid := range sum.fieldWrites {
			fids = append(fids, fid)
		}
		sort.Strings(fids)
		for _, fid := range fids {
			gl := sum.fieldWrites[fid] & (bcRawBit | bcTightBit)
			if gl != 0 && fields.add(fid, gl, sum.fieldSites[fid]) {
				enqueueReaders(fid)
			}
		}
	}

	for _, id := range bottomUpOrder(g, r.units) {
		enqueue(id)
	}

	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		inQueue[id] = false
		ns := bcAnalyze(r.units[id], sums, fields)
		changed := !bcEqual(sums[id], ns)
		sums[id] = ns
		globalize(id, ns)
		if changed {
			for _, c := range callers[id] {
				enqueue(c)
			}
		}
	}
	return sums
}

func (boundconstCheck) Run(pkg *Package) []Finding {
	sums := pkg.Module.boundconst()
	ids := make([]string, 0, len(sums))
	for id := range sums {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	byPos := map[token.Pos][]*ipSite{}
	for _, id := range ids {
		for _, site := range sums[id].events {
			var chain []*ipSite
			for s := site; s != nil; s = s.next {
				chain = append(chain, s)
			}
			sink := chain[len(chain)-1].pos
			if prev, ok := byPos[sink]; !ok || len(chain) > len(prev) {
				byPos[sink] = chain
			}
		}
	}
	var sinks []token.Pos
	for p := range byPos {
		sinks = append(sinks, p)
	}
	sort.Slice(sinks, func(i, j int) bool { return sinks[i] < sinks[j] })

	var out []Finding
	for _, sink := range sinks {
		if !pkg.ownsPos(sink) {
			continue
		}
		h := ipHit{sink: sink, chain: byPos[sink]}
		f := pkg.Module.newFinding("boundconst", sink,
			"raw log2(1+b) bound reaches a quantizer sink on the path %s without the Lemma-2 round-off tightening; subtract the max|log2 x|·ε₀ margin (core.Forward's roundoff guard) first",
			h.chainPath(pkg.Module))
		h.decorate(&f, pkg.Module)
		out = append(out, f)
	}
	return out
}

// --- per-function analysis ----------------------------------------------

type bcEval struct {
	u      *funcUnit
	info   *types.Info
	sums   map[string]*bcSummary
	fields *fieldFacts
	sum    *bcSummary
	seen   map[token.Pos]bool
	// noFields disables field reads in maskOf, so checkSinks can tell a
	// field-borne raw bound (whose witness chain starts at the store)
	// from one computed locally.
	noFields bool
}

func bcAnalyze(u *funcUnit, sums map[string]*bcSummary, fields *fieldFacts) *bcSummary {
	ev := &bcEval{
		u:      u,
		info:   u.pkg.Info,
		sums:   sums,
		fields: fields,
		sum: &bcSummary{
			sinkVia:     map[int]*ipSite{},
			fieldWrites: map[string]uint64{},
			fieldSites:  map[string]*ipSite{},
			fieldReads:  map[string]bool{},
		},
	}
	// Field writes discovered late in a pass feed field reads earlier in
	// the same function (flow-insensitively), so iterate the whole
	// propagate+report pipeline until the local field table stops
	// growing. Everything except fieldWrites/fieldSites/fieldReads is
	// recomputed from scratch each round; the final round's view wins.
	for iter := 0; iter < 8; iter++ {
		before := cloneMasks(ev.sum.fieldWrites)
		ev.sum.retMask = 0
		ev.sum.events = nil
		ev.sum.sinkVia = map[int]*ipSite{}
		ev.seen = map[token.Pos]bool{}
		boundary := maskState{}
		for i, p := range u.params {
			if p != nil && paramBit(i) != 0 && isFloat(p.Type()) {
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
		if masksEqual(before, ev.sum.fieldWrites) {
			break
		}
	}
	return ev.sum
}

func (ev *bcEval) step(s maskState, n ast.Node, report bool) {
	if report {
		ev.checkSinks(s, n)
	} else {
		ev.callFieldEffects(s, n)
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		fieldStores(ev.info, s, n, ev.maskOf, ev.recordFieldWrite)
		maskAssign(ev.info, s, n, ev.maskOf)
	case *ast.DeclStmt:
		maskDeclare(ev.info, s, n, ev.maskOf)
	case *ast.ReturnStmt:
		if report {
			ev.collectReturn(s, n)
		}
	}
	// Guard conditions do not sanitize here: comparing a bound leaves it
	// just as raw as before.
}

// recordFieldWrite folds one field store into the local table, keeping
// the first store site as the witness-chain head for field-origin
// findings (and for the //lint:allow seed-site suppression rule).
func (ev *bcEval) recordFieldWrite(fid string, m uint64, pos token.Pos) {
	if m == 0 {
		return
	}
	ev.sum.fieldWrites[fid] |= m
	if ev.sum.fieldSites[fid] == nil {
		ev.sum.fieldSites[fid] = &ipSite{fn: ev.u.id, pos: pos}
	}
}

// callFieldEffects translates a summarized callee's field writes into
// this caller's table: callee parameter bits become the argument masks
// the caller passed (receiver first), class bits carry over unchanged,
// and the witness chain gains the call site ahead of the callee's store.
func (ev *bcEval) callFieldEffects(s maskState, n ast.Node) {
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
		am := callArgMasks(ev.info, s, call, fn, ev.maskOf)
		fids := make([]string, 0, len(cs.fieldWrites))
		for fid := range cs.fieldWrites {
			fids = append(fids, fid)
		}
		sort.Strings(fids)
		for _, fid := range fids {
			fm := cs.fieldWrites[fid]
			t := fm &^ ipParamMask
			for j, a := range am {
				if a != 0 && fm&paramBit(j) != 0 {
					t |= a
				}
			}
			if t == 0 {
				continue
			}
			ev.sum.fieldWrites[fid] |= t
			if ev.sum.fieldSites[fid] == nil {
				ev.sum.fieldSites[fid] = &ipSite{fn: ev.u.id, pos: call.Pos(), next: cs.fieldSites[fid]}
			}
		}
		return true
	})
}

func (ev *bcEval) collectReturn(s maskState, n *ast.ReturnStmt) {
	if len(n.Results) == 0 {
		for _, o := range ev.u.results {
			ev.sum.retMask |= s[o]
		}
		return
	}
	for _, e := range n.Results {
		ev.sum.retMask |= ev.maskOf(s, e)
	}
}

// maskOf evaluates a float expression's bound provenance: parameter bits
// for untightened flows, bcRawBit for log(1+x) results, bcTightBit once a
// subtraction or sub-unit scaling is applied.
func (ev *bcEval) maskOf(s maskState, e ast.Expr) uint64 {
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
	case *ast.UnaryExpr:
		return ev.maskOf(s, e.X)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND, token.LOR, token.EQL, token.NEQ,
			token.LSS, token.LEQ, token.GTR, token.GEQ:
			return 0
		case token.SUB:
			// The Lemma-2 shape: subtracting the round-off margin
			// tightens whatever was raw (or parameter-fresh).
			m := ev.maskOf(s, e.X) | ev.maskOf(s, e.Y)
			if m&^bcTightBit != 0 {
				return bcTightBit
			}
			return m
		case token.MUL:
			// Multiplying by a constant below 1 is the slack form of the
			// tightening (e.g. the 0.999 derating in the ISABELA path).
			if (bcSubUnitConst(ev.info, e.X) && ev.maskOf(s, e.Y) != 0) ||
				(bcSubUnitConst(ev.info, e.Y) && ev.maskOf(s, e.X) != 0) {
				return bcTightBit
			}
			return ev.maskOf(s, e.X) | ev.maskOf(s, e.Y)
		default:
			// ADD, QUO, ...: log2(1+b)/log2(a) rebases but stays raw.
			return ev.maskOf(s, e.X) | ev.maskOf(s, e.Y)
		}
	case *ast.IndexExpr:
		return ev.maskOf(s, e.X)
	case *ast.StarExpr:
		return ev.maskOf(s, e.X)
	case *ast.SelectorExpr:
		m := ev.maskOf(s, e.X) & (bcRawBit | bcTightBit)
		if fid := fieldIDOf(ev.info, e); fid != "" && !ev.noFields {
			ev.sum.fieldReads[fid] = true
			m |= (ev.sum.fieldWrites[fid] | ev.fields.masks[fid]) & (bcRawBit | bcTightBit)
		}
		return m
	case *ast.CompositeLit:
		compositeFieldStores(ev.info, s, e, ev.maskOf, ev.recordFieldWrite)
		return 0
	case *ast.CallExpr:
		return ev.callMask(s, e)
	}
	return 0
}

// maskOfNoFields evaluates e with field reads disabled, to attribute a
// raw classification to either local computation or a field flow.
func (ev *bcEval) maskOfNoFields(s maskState, e ast.Expr) uint64 {
	ev.noFields = true
	m := ev.maskOf(s, e)
	ev.noFields = false
	return m
}

// fieldRawSite finds the store-site witness chain for the raw-not-tight
// field fact that classified e, scanning its selector reads.
func (ev *bcEval) fieldRawSite(e ast.Expr) *ipSite {
	var found *ipSite
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fid := fieldIDOf(ev.info, sel)
		if fid == "" {
			return true
		}
		fm := ev.sum.fieldWrites[fid] | ev.fields.masks[fid]
		if fm&bcRawBit != 0 && fm&bcTightBit == 0 {
			if fs := ev.sum.fieldSites[fid]; fs != nil {
				found = fs
			} else {
				found = ev.fields.sites[fid]
			}
		}
		return true
	})
	return found
}

func (ev *bcEval) callMask(s maskState, call *ast.CallExpr) uint64 {
	if isConversion(ev.info, call) && len(call.Args) == 1 {
		return ev.maskOf(s, call.Args[0])
	}
	if builtinName(ev.info, call) != "" {
		return 0
	}
	if bcLogRe.MatchString(calleeBaseName(call)) && len(call.Args) == 1 && bcIsOnePlus(ev.info, call.Args[0]) {
		return bcRawBit
	}
	fn := staticCallee(ev.info, call)
	if fn == nil {
		return 0
	}
	cs := ev.sums[funcID(fn)]
	if cs == nil {
		return 0
	}
	m := cs.retMask & (bcRawBit | bcTightBit)
	for j, am := range callArgMasks(ev.info, s, call, fn, ev.maskOf) {
		if am != 0 && cs.retMask&paramBit(j) != 0 {
			m |= am
		}
	}
	return m
}

// checkSinks records raw bounds entering sink parameters, and parameter
// flows into sinks (directly or through a summarized callee).
func (ev *bcEval) checkSinks(s maskState, n ast.Node) {
	inspectEvaluated(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok || isConversion(ev.info, call) || builtinName(ev.info, call) != "" {
			return true
		}
		fn := staticCallee(ev.info, call)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil {
			return true
		}
		nRecv := 0
		if sig.Recv() != nil {
			nRecv = 1
		}
		cs := ev.sums[funcID(fn)]
		direct := bcIsSinkFunc(fn)
		for i, a := range call.Args {
			j := nRecv + i
			if sig.Variadic() && j >= nRecv+sig.Params().Len()-1 {
				j = nRecv + sig.Params().Len() - 1
			}
			am := ev.maskOf(s, a)
			if am == 0 {
				continue
			}
			var site *ipSite
			if direct && bcIsBoundParam(sig, j-nRecv) {
				site = &ipSite{fn: ev.u.id, pos: a.Pos()}
			} else if cs != nil && cs.sinkVia[j] != nil {
				site = &ipSite{fn: ev.u.id, pos: call.Pos(), next: cs.sinkVia[j]}
			}
			if site == nil {
				continue
			}
			if am&bcRawBit != 0 && am&bcTightBit == 0 {
				full := site
				if ev.maskOfNoFields(s, a)&bcRawBit == 0 {
					// The raw class came from a field read: the witness
					// chain starts at the store that made the field raw.
					if fs := ev.fieldRawSite(a); fs != nil {
						full = prependChain(fs, site)
					}
				}
				ev.event(full)
			}
			for pi := range ev.u.params {
				if am&paramBit(pi) != 0 && ev.sum.sinkVia[pi] == nil {
					ev.sum.sinkVia[pi] = site
				}
			}
		}
		return true
	})
}

func (ev *bcEval) event(site *ipSite) {
	sink := site.sink().pos
	if ev.seen[sink] {
		return
	}
	ev.seen[sink] = true
	ev.sum.events = append(ev.sum.events, site)
}

// bcIsSinkFunc reports whether fn's bound parameters are quantizer sinks.
func bcIsSinkFunc(fn *types.Func) bool {
	if fn.Pkg() != nil && bcSinkPkgs[fn.Pkg().Name()] {
		return true
	}
	return bcSinkNameRe.MatchString(fn.Name())
}

// bcIsBoundParam reports whether signature parameter i is a float64
// error-bound parameter by name.
func bcIsBoundParam(sig *types.Signature, i int) bool {
	if i < 0 || i >= sig.Params().Len() {
		return false
	}
	p := sig.Params().At(i)
	b, ok := p.Type().Underlying().(*types.Basic)
	if !ok || b.Kind() != types.Float64 {
		return false
	}
	return bcParamRe.MatchString(p.Name())
}

// bcIsOnePlus matches the 1+x / x+1 argument shape of the mapped bound.
func bcIsOnePlus(info *types.Info, e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || be.Op != token.ADD {
		return false
	}
	one := func(x ast.Expr) bool {
		tv, ok := info.Types[x]
		if !ok || tv.Value == nil {
			return false
		}
		f := constant.ToFloat(tv.Value)
		return f.Kind() == constant.Float &&
			constant.Compare(f, token.EQL, constant.MakeFloat64(1))
	}
	return one(be.X) || one(be.Y)
}

// bcSubUnitConst reports whether e is a constant with |value| < 1.
func bcSubUnitConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return false
	}
	f := constant.ToFloat(tv.Value)
	if f.Kind() != constant.Float {
		return false
	}
	v, _ := constant.Float64Val(f)
	return v > -1 && v < 1
}
