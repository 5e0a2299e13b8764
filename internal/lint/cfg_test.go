package lint

import (
	"go/ast"
	"go/token"
	"testing"
)

// loadFunc type-checks src as a fixture package and returns the named
// function's declaration together with its package.
func loadFunc(t *testing.T, src, name string) (*Package, *ast.FuncDecl) {
	t.Helper()
	m, err := LoadSources(map[string]string{"a.go": src})
	if err != nil {
		t.Fatalf("LoadSources: %v", err)
	}
	pkg := m.Packages[0]
	var fd *ast.FuncDecl
	forEachFuncDecl(pkg, func(_ *ast.File, d *ast.FuncDecl) {
		if d.Name.Name == name {
			fd = d
		}
	})
	if fd == nil {
		t.Fatalf("no function %q in fixture", name)
	}
	return pkg, fd
}

// blockOf returns the block holding a node satisfying pred.
func blockOf(t *testing.T, g *cfg, pred func(ast.Node) bool) *cfgBlock {
	t.Helper()
	for _, b := range g.blocks {
		for _, n := range b.nodes {
			if pred(n) {
				return b
			}
		}
	}
	t.Fatal("no block holds the wanted node")
	return nil
}

// incDecOf matches the statement `<name>++` / `<name>--`.
func incDecOf(name string, tok token.Token) func(ast.Node) bool {
	return func(n ast.Node) bool {
		s, ok := n.(*ast.IncDecStmt)
		if !ok || s.Tok != tok {
			return false
		}
		id, ok := s.X.(*ast.Ident)
		return ok && id.Name == name
	}
}

func TestCFGLoopDepth(t *testing.T) {
	_, fd := loadFunc(t, `package fixture

func Nested(n int) int {
	t := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			t++
		}
		t--
	}
	return t
}
`, "Nested")
	g := buildCFG(fd.Body)

	pre := blockOf(t, g, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || a.Tok != token.DEFINE {
			return false
		}
		id, ok := a.Lhs[0].(*ast.Ident)
		return ok && id.Name == "t"
	})
	inner := blockOf(t, g, incDecOf("t", token.INC))
	outer := blockOf(t, g, incDecOf("t", token.DEC))
	ret := blockOf(t, g, func(n ast.Node) bool { _, ok := n.(*ast.ReturnStmt); return ok })

	for _, c := range []struct {
		what string
		blk  *cfgBlock
		want int
	}{
		{"pre-loop init", pre, 0},
		{"inner loop body", inner, 2},
		{"outer loop body", outer, 1},
		{"return", ret, 0},
	} {
		if c.blk.loopDepth != c.want {
			t.Errorf("%s: loopDepth = %d, want %d", c.what, c.blk.loopDepth, c.want)
		}
	}
}

func TestCFGReversePostorder(t *testing.T) {
	_, fd := loadFunc(t, `package fixture

func Branch(c bool) int {
	if c {
		return 1
	}
	for i := 0; i < 3; i++ {
		c = !c
	}
	return 0
}
`, "Branch")
	g := buildCFG(fd.Body)
	order := g.reversePostorder()
	if len(order) == 0 || order[0] != g.entry {
		t.Fatalf("reverse postorder must start at entry")
	}
	seen := map[*cfgBlock]bool{}
	for _, b := range order {
		if seen[b] {
			t.Fatalf("block %d appears twice in RPO", b.index)
		}
		seen[b] = true
	}
	if !seen[g.exit] {
		t.Errorf("exit block unreachable in RPO")
	}
	// Edge consistency: every successor lists the block as a predecessor.
	for _, b := range g.blocks {
		for _, s := range b.succs {
			found := false
			for _, p := range s.preds {
				if p == b {
					found = true
				}
			}
			if !found {
				t.Errorf("block %d -> %d edge missing the back-reference", b.index, s.index)
			}
		}
	}
}

func TestReachingDefsMergeAndBoundary(t *testing.T) {
	pkg, fd := loadFunc(t, `package fixture

func Pick(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}
`, "Pick")
	g := buildCFG(fd.Body)
	rd := newReachingDefs(g, pkg.Info, boundaryObjects(pkg.Info, fd))

	var ret *ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			ret = r
		}
		return true
	})
	blk := blockOf(t, g, func(n ast.Node) bool { return n == ret })

	// Both definitions of x (the init and the conditional overwrite) reach
	// the return.
	xobj := objOf(pkg.Info, ret.Results[0].(*ast.Ident))
	sites := rd.defsBefore(blk, ret, xobj)
	if len(sites) != 2 {
		t.Fatalf("got %d reaching defs of x at return, want 2", len(sites))
	}
	for _, s := range sites {
		if s.node == nil {
			t.Errorf("x has a boundary definition; it is a local")
		}
	}

	// The parameter keeps its single boundary definition.
	cobj := boundaryObjects(pkg.Info, fd)[0]
	csites := rd.defsBefore(blk, ret, cobj)
	if len(csites) != 1 || csites[0].node != nil {
		t.Errorf("parameter c: got %d defs (nil-node=%v), want the one boundary def",
			len(csites), len(csites) > 0 && csites[0].node == nil)
	}
}

func TestReachingDefsKill(t *testing.T) {
	pkg, fd := loadFunc(t, `package fixture

func Overwrite() int {
	x := 1
	x = 2
	return x
}
`, "Overwrite")
	g := buildCFG(fd.Body)
	rd := newReachingDefs(g, pkg.Info, boundaryObjects(pkg.Info, fd))

	var ret *ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			ret = r
		}
		return true
	})
	blk := blockOf(t, g, func(n ast.Node) bool { return n == ret })
	xobj := objOf(pkg.Info, ret.Results[0].(*ast.Ident))
	sites := rd.defsBefore(blk, ret, xobj)
	if len(sites) != 1 {
		t.Fatalf("got %d reaching defs after an unconditional overwrite, want 1", len(sites))
	}
	if lit, ok := sites[0].rhs.(*ast.BasicLit); !ok || lit.Value != "2" {
		t.Errorf("surviving def is %v, want the overwrite x = 2", sites[0].rhs)
	}
}
