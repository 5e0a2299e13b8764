package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// This file drives the summary analysis (summary.go) to a module-wide
// fixed point and exposes the result to wrapreach.
//
// The propagation is bottom-up over the call graph: functions are first
// analyzed in reverse topological order (callees before callers) so each
// caller sees its callees' summaries, then re-enqueued along reverse
// edges whenever a callee's observable summary grows — recursion and
// mutual-recursion cycles iterate to a fixed point, which exists because
// the summary lattice (parameter key sets, return masks) only grows and
// is finite.
//
// Findings come from two sources, matching the "any interprocedural path
// from an exported decode entry" rule:
//
//   - events in an entry function whose mask includes an untrusted entry
//     parameter (the buffer/reader the caller hands in), which carry the
//     full call chain from the entry down to the sink; and
//   - seed events (decode-read-derived taint) in any function reachable
//     from an entry — the seed is attacker data no matter who calls.

// ipEntryRe names the exported decode entry points whose byte-slice and
// reader parameters are untrusted.
var ipEntryRe = regexp.MustCompile(`^(Decompress|Decode|ScanSalvage|Open|Parse|Unmarshal|Read|Next)`)

// ipResult is the module-wide interprocedural analysis result.
type ipResult struct {
	units map[string]*funcUnit
	sums  map[string]*ipSummary
	// entries maps each decode entry's funcID to the mask of its
	// untrusted parameters.
	entries map[string]uint64
	// reachable marks every function reachable from some entry.
	reachable map[string]bool
}

// interproc builds (once) and returns the module's interprocedural
// summaries.
func (m *Module) interproc() *ipResult {
	m.ipOnce.Do(func() { m.ip = buildInterproc(m) })
	return m.ip
}

func buildInterproc(m *Module) *ipResult {
	units := ipUnits(m)
	g := m.Graph()

	r := &ipResult{units: units, entries: map[string]uint64{}}
	for id, u := range units {
		name := u.decl.Name.Name
		if !ipEntryRe.MatchString(name) || !ast.IsExported(name) {
			continue
		}
		var mask uint64
		for i, p := range u.params {
			if p != nil && untrustedParamType(p.Type()) {
				mask |= paramBit(i)
			}
		}
		r.entries[id] = mask
	}
	entryIDs := make([]string, 0, len(r.entries))
	for id := range r.entries {
		entryIDs = append(entryIDs, id)
	}
	sort.Strings(entryIDs)
	r.reachable = g.reachableFrom(entryIDs)

	// Reverse edges restricted to summarized functions, deduplicated.
	callers := map[string][]string{}
	for from, tos := range g.edges {
		if units[from] == nil {
			continue
		}
		seen := map[string]bool{}
		for _, to := range tos {
			if units[to] != nil && !seen[to] {
				seen[to] = true
				callers[to] = append(callers[to], from)
			}
		}
	}
	for _, cs := range callers {
		sort.Strings(cs)
	}

	sums := map[string]*ipSummary{}
	var queue []string
	inQueue := map[string]bool{}
	enqueue := func(id string) {
		if !inQueue[id] && units[id] != nil {
			inQueue[id] = true
			queue = append(queue, id)
		}
	}
	for _, id := range bottomUpOrder(g, units) {
		enqueue(id)
	}

	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		inQueue[id] = false
		ns := ipAnalyze(units[id], sums)
		changed := !ipEqual(sums[id], ns)
		sums[id] = ns
		if changed {
			for _, c := range callers[id] {
				enqueue(c)
			}
		}
	}
	r.sums = sums
	return r
}

// bottomUpOrder returns the summarized functions callees-first (reverse
// topological order of the call graph's intra-module edges; cycles fall
// out in DFS finish order and converge by re-queuing).
func bottomUpOrder(g *callGraph, units map[string]*funcUnit) []string {
	ids := make([]string, 0, len(units))
	for id := range units {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	seen := map[string]bool{}
	var order []string
	var dfs func(id string)
	dfs = func(id string) {
		seen[id] = true
		for _, to := range g.edges[id] {
			if units[to] != nil && !seen[to] {
				dfs(to)
			}
		}
		order = append(order, id)
	}
	for _, id := range ids {
		if !seen[id] {
			dfs(id)
		}
	}
	return order
}

// untrustedParamType reports whether a decode entry parameter of this
// type carries attacker-controlled bytes: byte slices and io.Reader-like
// interfaces.
func untrustedParamType(t types.Type) bool {
	if isByteSeq(t) {
		return true
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "Read" {
				return true
			}
		}
	}
	return false
}

// ipHit is one deduplicated interprocedural finding site.
type ipHit struct {
	sink  token.Pos
	chain []*ipSite // entry/top function first, sink last
}

// hits extracts the module's findings, deduplicated by sink position
// (keeping the longest witness chain).
func (r *ipResult) hits() []ipHit {
	ids := make([]string, 0, len(r.units))
	for id := range r.units {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	byPos := map[token.Pos]ipHit{}
	for _, id := range ids {
		sum := r.sums[id]
		if sum == nil {
			continue
		}
		tEff := r.entries[id]
		if r.reachable[id] {
			tEff |= ipSeedBit
		}
		if tEff == 0 {
			continue
		}
		for _, e := range sum.events {
			if e.mask&tEff == 0 {
				continue
			}
			var chain []*ipSite
			for s := e.site; s != nil; s = s.next {
				chain = append(chain, s)
			}
			h := ipHit{sink: chain[len(chain)-1].pos, chain: chain}
			if prev, ok := byPos[h.sink]; !ok || len(h.chain) > len(prev.chain) {
				byPos[h.sink] = h
			}
		}
	}
	out := make([]ipHit, 0, len(byPos))
	for _, h := range byPos {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sink < out[j].sink })
	return out
}

// chainStrings renders the witness chain for a Finding, one hop per
// entry, with positions relative to the module.
func (h ipHit) chainStrings(m *Module) []string {
	out := make([]string, 0, len(h.chain))
	for _, s := range h.chain {
		p := m.Fset.Position(s.pos)
		out = append(out, fmt.Sprintf("%s (%s:%d)", m.shortID(s.fn), shortFile(p.Filename), p.Line))
	}
	return out
}

// chainPath renders "f → g → h" for finding messages.
func (h ipHit) chainPath(m *Module) string {
	names := make([]string, 0, len(h.chain))
	for _, s := range h.chain {
		n := m.shortID(s.fn)
		if len(names) == 0 || names[len(names)-1] != n {
			names = append(names, n)
		}
	}
	return strings.Join(names, " → ")
}

func shortFile(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}
