package lint

import (
	"testing"
)

func graphOf(t *testing.T, src string) (*Module, *callGraph) {
	t.Helper()
	m, err := LoadSources(map[string]string{"a.go": src})
	if err != nil {
		t.Fatalf("LoadSources: %v", err)
	}
	return m, m.Graph()
}

func hasEdge(g *callGraph, from, to string) bool {
	for _, e := range g.edges[from] {
		if e == to {
			return true
		}
	}
	return false
}

// Direct method calls produce edges; a method value bound to a variable
// and called through it does not (the callee is a *types.Var at the call
// site) — the graph under-approximates there, which the interprocedural
// layer inherits knowingly.
func TestGraphMethodValues(t *testing.T) {
	_, g := graphOf(t, `package fixture

type counter struct{ n int }

func (c *counter) bump() { c.n++ }

func direct(c *counter) {
	c.bump()
}

func viaValue(c *counter) {
	f := c.bump
	f()
}
`)
	bump := "(*fixture.counter).bump"
	if !hasEdge(g, "fixture.direct", bump) {
		t.Errorf("direct method call: no edge fixture.direct -> %s; edges: %v", bump, g.edges["fixture.direct"])
	}
	if hasEdge(g, "fixture.viaValue", bump) {
		t.Errorf("method-value call unexpectedly produced an edge (update this test and the summary-layer docs if the graph learned to track func values)")
	}
}

// An interface-method call expands to every module type implementing the
// interface — the deliberate over-approximation benchclock's clock
// reachability and the summary layer's entry reachability rely on.
func TestGraphInterfaceDispatchOverApproximates(t *testing.T) {
	_, g := graphOf(t, `package fixture

type codec interface {
	Encode([]float64) []byte
}

type fast struct{}

func (fast) Encode(v []float64) []byte { return nil }

type exact struct{}

func (exact) Encode(v []float64) []byte { return nil }

type unrelated struct{}

func (unrelated) Decode(b []byte) []float64 { return nil }

func run(c codec) {
	c.Encode(nil)
}
`)
	for _, want := range []string{"(fixture.fast).Encode", "(fixture.exact).Encode"} {
		if !hasEdge(g, "fixture.run", want) {
			t.Errorf("interface call did not expand to %s; edges: %v", want, g.edges["fixture.run"])
		}
	}
	if hasEdge(g, "fixture.run", "(fixture.unrelated).Decode") {
		t.Error("interface expansion reached a type that does not implement the interface")
	}
}

// Recursion and mutual recursion must not hang the reachability walks, and
// every cycle member must be reachable.
func TestGraphRecursionCycles(t *testing.T) {
	_, g := graphOf(t, `package fixture

func selfRec(n int) int {
	if n == 0 {
		return 0
	}
	return selfRec(n - 1)
}

func ping(n int) int {
	if n == 0 {
		return 0
	}
	return pong(n - 1)
}

func pong(n int) int {
	return ping(n)
}

func Entry(n int) int {
	return selfRec(n) + ping(n)
}
`)
	reach := g.reachableFrom([]string{"fixture.Entry"})
	for _, want := range []string{"fixture.Entry", "fixture.selfRec", "fixture.ping", "fixture.pong"} {
		if !reach[want] {
			t.Errorf("%s not reachable from fixture.Entry", want)
		}
	}
	rev := g.reaches([]string{"fixture.pong"})
	for _, want := range []string{"fixture.pong", "fixture.ping", "fixture.Entry"} {
		if !rev[want] {
			t.Errorf("%s does not reach fixture.pong", want)
		}
	}
	if rev["fixture.selfRec"] {
		t.Error("fixture.selfRec reaches fixture.pong, want no path")
	}
}
