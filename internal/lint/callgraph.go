package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// callGraph is a static, name-keyed call graph over every lint unit in the
// module. Nodes are function IDs (types.Func.FullName, stable across the
// per-unit type-check instances); edges are direct calls plus a
// conservative expansion of interface-method calls to every module type
// implementing the interface.
type callGraph struct {
	// edges maps caller ID -> callee IDs.
	edges map[string][]string
}

// Graph builds (once) and returns the module's call graph.
func (m *Module) Graph() *callGraph {
	m.graphOnce.Do(func() { m.graph = buildGraph(m) })
	return m.graph
}

// funcID returns the stable identifier for fn.
func funcID(fn *types.Func) string { return fn.FullName() }

func buildGraph(m *Module) *callGraph {
	g := &callGraph{edges: map[string][]string{}}

	// Collect every named type declared in the module, for interface-call
	// expansion.
	var namedTypes []*types.Named
	for _, pkg := range m.Packages {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					namedTypes = append(namedTypes, n)
				}
			}
		}
	}

	// expandIface returns the IDs of all module methods that an abstract
	// interface-method call could dispatch to.
	expandIface := func(iface *types.Interface, name string) []string {
		var out []string
		for _, n := range namedTypes {
			if types.IsInterface(n) {
				continue
			}
			impl := types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface)
			if !impl {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, n.Obj().Pkg(), name)
			if fn, ok := obj.(*types.Func); ok {
				out = append(out, funcID(fn))
			}
		}
		return out
	}

	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				def, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				id := funcID(def)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					switch fun := call.Fun.(type) {
					case *ast.Ident:
						if callee, ok := pkg.Info.Uses[fun].(*types.Func); ok {
							g.edges[id] = append(g.edges[id], funcID(callee))
						}
					case *ast.SelectorExpr:
						callee, ok := pkg.Info.Uses[fun.Sel].(*types.Func)
						if !ok {
							return true
						}
						g.edges[id] = append(g.edges[id], funcID(callee))
						if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
							if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
								g.edges[id] = append(g.edges[id], expandIface(iface, callee.Name())...)
							}
						}
					}
					return true
				})
			}
		}
	}
	return g
}

// reachableFrom returns every node reachable from the given entry IDs
// (including the entries themselves).
func (g *callGraph) reachableFrom(entries []string) map[string]bool {
	seen := map[string]bool{}
	stack := append([]string{}, entries...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		stack = append(stack, g.edges[id]...)
	}
	return seen
}

// reaches returns every node from which some target ID is reachable
// (reverse reachability, including the targets themselves).
func (g *callGraph) reaches(targets []string) map[string]bool {
	rev := map[string][]string{}
	for from, tos := range g.edges {
		for _, to := range tos {
			rev[to] = append(rev[to], from)
		}
	}
	seen := map[string]bool{}
	stack := append([]string{}, targets...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		stack = append(stack, rev[id]...)
	}
	return seen
}

// shortID trims the module path prefix for readable messages.
func (m *Module) shortID(id string) string {
	return strings.ReplaceAll(id, m.Path+"/", "")
}
