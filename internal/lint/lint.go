// Package lint is a standard-library-only static-analysis framework with
// domain-specific checks for this repository's compression pipeline. It
// parses and type-checks every package in the module (go/parser + go/types)
// and runs registered checks over the typed ASTs.
//
// Each check is kept because it caught a real bug here (see DESIGN.md §6):
//
//	errdrop    — no silently discarded error returns in library code.
//	benchclock — tests must not assert orderings of wall-clock-derived
//	             durations without a race-detector/CI guard.
//	intnarrow  — no possibly-truncating integer conversion or over-wide
//	             shift in the bit-level codec packages.
//	allochot   — no per-iteration make()/grow-from-empty append() in hot
//	             codec loops (reaching definitions over cfg.go).
//	wrapreach  — no narrowing conversion of unvalidated decoder input,
//	             including a callee narrowing what its caller trusts
//	             (interprocedural summaries, summary.go and interproc.go).
//
// Findings can be suppressed with an inline comment on the same line or
// the line above:
//
//	//lint:allow <check>[,<check>...] <one-line justification>
//
// cmd/pwrvet is the command-line front end.
package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Finding is one reported violation. Interprocedural checks attach the
// witness call chain (entry first, sink last).
type Finding struct {
	Check   string
	File    string
	Line    int
	Col     int
	Message string
	Chain   []string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// Check is one analysis pass over a type-checked package.
type Check interface {
	// Name is the flag/suppression identifier (lower-case, no spaces).
	Name() string
	// Doc is a one-line description shown by pwrvet -list.
	Doc() string
	// Run reports findings for one package unit. Suppression filtering is
	// applied by the framework afterwards.
	Run(pkg *Package) []Finding
}

// AllChecks returns a fresh instance of every registered check, in
// deterministic order.
func AllChecks() []Check {
	return []Check{
		errdropCheck{},
		benchclockCheck{},
		intnarrowCheck{},
		allochotCheck{},
		wrapreachCheck{},
	}
}

// Package is one lint unit: a package's files (plus its in-package test
// files) type-checked together, or an external _test package.
type Package struct {
	// ImportPath is the package's import path; external test packages get
	// a "_test" suffix.
	ImportPath string
	Dir        string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	Module     *Module
}

// Fset returns the module-wide file set.
func (p *Package) Fset() *token.FileSet { return p.Module.Fset }

// IsTestFile reports whether f came from a _test.go file.
func (p *Package) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Module.Fset.Position(f.Pos()).Filename, "_test.go")
}

// Module is a loaded, type-checked module.
type Module struct {
	// Root is the directory containing go.mod ("" for source fixtures).
	Root string
	// Path is the module path from go.mod.
	Path string
	Fset *token.FileSet
	// Packages are the lint units in deterministic order.
	Packages []*Package

	// allowed holds one entry per check a //lint:allow directive names,
	// set once the entry has suppressed a finding.
	allowed map[allowKey]bool

	graphOnce sync.Once
	graph     *callGraph

	ipOnce sync.Once
	ip     *ipResult
}

// allowKey is one check named by a //lint:allow directive.
type allowKey struct {
	file  string
	line  int
	check string
}

// FindModuleRoot ascends from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

var modulePathRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// LoadModule parses and type-checks every package under root (which must
// contain go.mod). Test files are included in each package's unit;
// external _test packages become their own units.
func LoadModule(root string) (*Module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := modulePathRe.FindSubmatch(gomod)
	if m == nil {
		return nil, fmt.Errorf("lint: no module path in %s/go.mod", root)
	}
	ld := newLoader(root, string(m[1]))

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		ip := ld.mod.Path
		if rel != "." {
			ip = ld.mod.Path + "/" + filepath.ToSlash(rel)
		}
		if err := ld.addUnits(dir, ip); err != nil {
			return nil, err
		}
	}
	return ld.mod, nil
}

// LoadSources builds a single-package module from in-memory sources,
// keyed by file name; files ending in _test.go are treated as test files.
// Intended for fixture tests.
func LoadSources(files map[string]string) (*Module, error) {
	ld := newLoader("", "fixture")
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var lib, tests []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.mod.Fset, name, files[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ld.recordAllows(name, f)
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, f)
		} else {
			lib = append(lib, f)
		}
	}
	all := append(append([]*ast.File{}, lib...), tests...)
	pkg, info, err := ld.typecheck("fixture", all)
	if err != nil {
		return nil, err
	}
	ld.mod.Packages = append(ld.mod.Packages, &Package{
		ImportPath: "fixture", Files: all, Pkg: pkg, Info: info, Module: ld.mod,
	})
	return ld.mod, nil
}

// Run executes the checks over every package, returning unsuppressed
// findings sorted by position, plus the count of suppressed findings.
// Identical findings (same check, position and message — e.g. one a
// module-wide pass attributes to a package that a per-function pass also
// reported) are collapsed to one.
func (m *Module) Run(checks []Check) (findings []Finding, suppressed int) {
	findings, suppressed, _ = m.RunTimed(checks)
	return findings, suppressed
}

// CheckTime is one check's wall-clock cost over the whole module. The
// lazily built shared analyses (call graph, interprocedural fixpoint) are
// attributed to whichever check triggers them first, in AllChecks order.
type CheckTime struct {
	Name string
	Wall time.Duration
}

// RunTimed is Run with per-check wall-time accounting for -stats.
func (m *Module) RunTimed(checks []Check) (findings []Finding, suppressed int, times []CheckTime) {
	wall := make([]time.Duration, len(checks))
	for _, pkg := range m.Packages {
		for ci, c := range checks {
			start := time.Now()
			fs := c.Run(pkg)
			wall[ci] += time.Since(start)
			for _, f := range fs {
				if m.isAllowed(f) {
					suppressed++
					continue
				}
				findings = append(findings, f)
			}
		}
	}
	for i, c := range checks {
		times = append(times, CheckTime{Name: c.Name(), Wall: wall[i]})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	dedup := findings[:0]
	for i, f := range findings {
		if i > 0 {
			p := findings[i-1]
			if p.Check == f.Check && p.File == f.File && p.Line == f.Line &&
				p.Col == f.Col && p.Message == f.Message {
				continue
			}
		}
		dedup = append(dedup, f)
	}
	return dedup, suppressed, times
}

// allowRe matches the suppression directive.
var allowRe = regexp.MustCompile(`^//lint:allow\s+([a-z0-9_,]+)(\s|$)`)

// isAllowed reports whether a //lint:allow directive on the finding's
// line, or the line directly above, names the finding's check, and marks
// that directive as used.
func (m *Module) isAllowed(f Finding) bool {
	for _, line := range []int{f.Line, f.Line - 1} {
		k := allowKey{file: f.File, line: line, check: f.Check}
		if _, ok := m.allowed[k]; ok {
			m.allowed[k] = true
			return true
		}
	}
	return false
}

// unusedAllows lists the //lint:allow entries that name one of checks but
// have suppressed none of its findings so far, as "file:line: check".
func (m *Module) unusedAllows(checks []Check) []string {
	ran := map[string]bool{}
	for _, c := range checks {
		ran[c.Name()] = true
	}
	var out []string
	for k, used := range m.allowed {
		if !used && ran[k.check] {
			out = append(out, fmt.Sprintf("%s:%d: %s", k.file, k.line, k.check))
		}
	}
	sort.Strings(out)
	return out
}

// newFinding builds a Finding at pos.
func (m *Module) newFinding(check string, pos token.Pos, format string, args ...interface{}) Finding {
	p := m.Fset.Position(pos)
	return Finding{
		Check:   check,
		File:    p.Filename,
		Line:    p.Line,
		Col:     p.Column,
		Message: fmt.Sprintf(format, args...),
	}
}

// --- loading internals -------------------------------------------------

type loader struct {
	mod *Module
	// depCache holds module-internal dependency packages type-checked
	// without test files, as seen by importers.
	depCache map[string]*types.Package
	building map[string]bool
	stdGC    types.Importer
	stdSrc   types.ImporterFrom
}

func newLoader(root, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		mod: &Module{
			Root:    root,
			Path:    modPath,
			Fset:    fset,
			allowed: map[allowKey]bool{},
		},
		depCache: map[string]*types.Package{},
		building: map[string]bool{},
		stdGC:    importer.Default(),
		stdSrc:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

// Import implements types.Importer, resolving module-internal paths from
// source and everything else through the toolchain importers.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := ld.depCache[path]; ok {
		return pkg, nil
	}
	if ld.mod.Root != "" &&
		(path == ld.mod.Path || strings.HasPrefix(path, ld.mod.Path+"/")) {
		if ld.building[path] {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		ld.building[path] = true
		defer delete(ld.building, path)
		rel := strings.TrimPrefix(strings.TrimPrefix(path, ld.mod.Path), "/")
		dir := filepath.Join(ld.mod.Root, filepath.FromSlash(rel))
		lib, _, _, err := ld.parseDir(dir, false)
		if err != nil {
			return nil, err
		}
		if len(lib) == 0 {
			return nil, fmt.Errorf("lint: no buildable Go files for %q in %s", path, dir)
		}
		pkg, _, err := ld.typecheck(path, lib)
		if err != nil {
			return nil, err
		}
		ld.depCache[path] = pkg
		return pkg, nil
	}
	// Standard library (or toolchain-visible) package: prefer compiled
	// export data, fall back to type-checking GOROOT source.
	pkg, err := ld.stdGC.Import(path)
	if err != nil {
		pkg, err = ld.stdSrc.Import(path)
	}
	if err == nil {
		ld.depCache[path] = pkg
	}
	return pkg, err
}

// parseDir parses dir's .go files honoring build constraints, returning
// library files, in-package test files and external (_test package) test
// files.
func (ld *loader) parseDir(dir string, wantTests bool) (lib, tests, xtests []*ast.File, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !wantTests {
			continue
		}
		path := filepath.Join(dir, name)
		f, perr := parser.ParseFile(ld.mod.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, nil, nil, perr
		}
		if !buildable(f) {
			continue
		}
		ld.recordAllows(path, f)
		switch {
		case isTest && strings.HasSuffix(f.Name.Name, "_test"):
			xtests = append(xtests, f)
		case isTest:
			tests = append(tests, f)
		default:
			lib = append(lib, f)
		}
	}
	return lib, tests, xtests, nil
}

// addUnits type-checks dir's package (with its in-package tests) and any
// external test package, appending them to the module's lint units.
func (ld *loader) addUnits(dir, importPath string) error {
	lib, tests, xtests, err := ld.parseDir(dir, true)
	if err != nil {
		return err
	}
	if len(lib)+len(tests) > 0 {
		files := append(append([]*ast.File{}, lib...), tests...)
		pkg, info, err := ld.typecheck(importPath, files)
		if err != nil {
			return fmt.Errorf("%s: %w", importPath, err)
		}
		ld.mod.Packages = append(ld.mod.Packages, &Package{
			ImportPath: importPath, Dir: dir, Files: files,
			Pkg: pkg, Info: info, Module: ld.mod,
		})
	}
	if len(xtests) > 0 {
		pkg, info, err := ld.typecheck(importPath+"_test", xtests)
		if err != nil {
			return fmt.Errorf("%s_test: %w", importPath, err)
		}
		ld.mod.Packages = append(ld.mod.Packages, &Package{
			ImportPath: importPath + "_test", Dir: dir, Files: xtests,
			Pkg: pkg, Info: info, Module: ld.mod,
		})
	}
	return nil
}

// typecheck runs go/types over files as package path.
func (ld *loader) typecheck(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var terrs []error
	conf := types.Config{
		Importer: ld,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	pkg, err := conf.Check(path, ld.mod.Fset, files, info)
	if len(terrs) > 0 {
		return nil, nil, fmt.Errorf("type errors: %v", terrs[0])
	}
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// recordAllows indexes the checks //lint:allow directives name by file
// and line.
func (ld *loader) recordAllows(filename string, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			line := ld.mod.Fset.Position(c.Pos()).Line
			for _, check := range strings.Split(m[1], ",") {
				ld.mod.allowed[allowKey{file: filename, line: line, check: check}] = false
			}
		}
	}
}

// buildable evaluates a file's //go:build constraint for the host
// platform with no extra tags (in particular, race is off).
func buildable(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(func(tag string) bool {
				switch tag {
				case runtime.GOOS, runtime.GOARCH, "unix", "cgo":
					return tag != "unix" || unixGOOS[runtime.GOOS]
				}
				return strings.HasPrefix(tag, "go1.")
			})
		}
	}
	return true
}

var unixGOOS = map[string]bool{
	"linux": true, "darwin": true, "freebsd": true, "netbsd": true,
	"openbsd": true, "solaris": true, "aix": true, "dragonfly": true,
}
