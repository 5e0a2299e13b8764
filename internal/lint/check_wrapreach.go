package lint

import "go/token"

// wrapreachCheck is the interprocedural companion to intnarrow: a
// narrowing integer conversion (typically uint64 → int) fed by decoder
// input that was never range-guarded on the way in — including the case
// where the narrowing happens in a callee that blindly trusts its
// caller, which the per-package intnarrow scope cannot see. The classic
// instance is `int(lengthFromHeader)` going negative for lengths above
// 2^63 and flipping a `>` bounds guard into a pass.
//
// Single-function seed events are reported too: the width-sensitive
// intnarrow check only covers the bit-level codec packages, so an
// unguarded narrowing in, say, a header parser is not otherwise
// diagnosed. Packages already under intnarrow's unconditional rule are
// excluded to avoid double findings.
type wrapreachCheck struct{}

func (wrapreachCheck) Name() string { return "wrapreach" }
func (wrapreachCheck) Doc() string {
	return "flag narrowing conversions of unvalidated decoder input across call boundaries (interprocedural intnarrow)"
}

// wrapreachExclude lists the packages whose conversions intnarrow already
// polices unconditionally (taint or not), where a wrapreach finding would
// always be a duplicate.
var wrapreachExclude = map[string]bool{
	"bitio": true, "huffman": true, "rangecoder": true,
	"zfp": true, "floatbits": true,
}

func (wrapreachCheck) Run(pkg *Package) []Finding {
	if wrapreachExclude[pkg.Pkg.Name()] {
		return nil
	}
	r := pkg.Module.interproc()
	var out []Finding
	for _, h := range r.hits() {
		if !pkg.ownsPos(h.sink) {
			continue
		}
		f := pkg.Module.newFinding("wrapreach", h.sink,
			"narrowing conversion of unvalidated decoder input on the path %s; a length above the target width wraps (possibly negative) and defeats later bounds checks — guard the wide value first",
			h.chainPath(pkg.Module))
		f.Chain = h.chainStrings(pkg.Module)
		out = append(out, f)
	}
	return out
}

// ownsPos reports whether pos falls inside one of the unit's files.
// Library files belong to exactly one unit, so this attributes each
// module-wide position to a single package.
func (p *Package) ownsPos(pos token.Pos) bool {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return true
		}
	}
	return false
}
