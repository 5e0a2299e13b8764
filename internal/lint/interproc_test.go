package lint

import (
	"testing"
)

// wantChain asserts the single finding carries a witness chain of n hops.
func wantChain(t *testing.T, findings []Finding, n int) {
	t.Helper()
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	if len(findings[0].Chain) != n {
		t.Errorf("chain has %d hops, want %d: %v", len(findings[0].Chain), n, findings[0].Chain)
	}
}

// --- wrapreach -----------------------------------------------------------

// A callee that narrows a width the caller never validated: the conversion
// is diagnosed at the callee with the cross-function chain.
func TestWrapreachNarrowingInTrustingCallee(t *testing.T) {
	findings, _ := runCheck(t, "wrapreach", map[string]string{
		"a.go": `package fixture

func DecompressStream(buf []byte) int {
	v := be64(buf)
	return toInt(v)
}

func be64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * uint(i))
	}
	return v
}

func toInt(v uint64) int {
	return int(v)
}
`,
	})
	wantOne(t, findings, 17, "fixture.DecompressStream → fixture.toInt")
	wantChain(t, findings, 2)
}

// The shape of core.ParseHeader before fcc5120: int(blobLen) wraps
// negative for blobLen >= 2^63, so the bounds guard itself passes and the
// slice below it reads out of range.
func TestWrapreachDirectNarrowingInEntry(t *testing.T) {
	findings, _ := runCheck(t, "wrapreach", map[string]string{
		"a.go": `package fixture

import (
	"encoding/binary"
	"errors"
)

var errCorrupt = errors.New("corrupt")

func ParseHeader(buf []byte, off int) ([]byte, error) {
	blobLen, k := binary.Uvarint(buf[off:])
	if k == 0 || int(blobLen) > len(buf)-off-k {
		return nil, errCorrupt
	}
	off += k
	return buf[off : off+int(blobLen)], nil
}
`,
	})
	wantOne(t, findings, 12, "narrowing conversion of unvalidated decoder input")
}

// A range guard against a fixed cap sanitizes the value for the rest of
// the function.
func TestWrapreachRangeGuardClean(t *testing.T) {
	findings, suppressed := runCheck(t, "wrapreach", map[string]string{
		"a.go": `package fixture

func DecodeLen(buf []byte) int {
	v := uint64(buf[0])<<32 | uint64(buf[1])
	if v > 1<<20 {
		return 0
	}
	return int(v)
}
`,
	})
	wantClean(t, findings, suppressed, 0)
}

// Masking to the target width bounds the value: no wrap possible.
func TestWrapreachMaskedConversionClean(t *testing.T) {
	findings, suppressed := runCheck(t, "wrapreach", map[string]string{
		"a.go": `package fixture

func DecodeTag(buf []byte) int {
	v := uint64(buf[0]) << 8
	return int(v & 0xffff)
}
`,
	})
	wantClean(t, findings, suppressed, 0)
}

// A caller-side guard protects the callee's narrowing: the entry's
// argument is sanitized, and the callee's own event carries no entry taint.
func TestWrapreachGuardedCallerClean(t *testing.T) {
	findings, suppressed := runCheck(t, "wrapreach", map[string]string{
		"a.go": `package fixture

func DecompressSafe(buf []byte) int {
	v := wide(buf)
	if v > 4096 {
		return 0
	}
	return narrow(v)
}

func wide(b []byte) uint64 {
	return uint64(b[0])
}

func narrow(v uint64) int {
	return int(v)
}
`,
	})
	wantClean(t, findings, suppressed, 0)
}

// --- guard calls and entry reachability ---------------------------------
//
// These two rules of the summary engine were first pinned by the retired
// limitreach check; wrapreach relies on the same rules, so the fixtures
// keep their names and now exercise them through wrapreach.

// A named guard call (the DecodeLimits convention) sanitizes the value for
// the rest of the entry, including the callee's narrowing.
func TestLimitreachGuardCallClean(t *testing.T) {
	findings, suppressed := runCheck(t, "wrapreach", map[string]string{
		"a.go": `package fixture

import "errors"

func DecompressChecked(buf []byte) int {
	v := uint64(buf[0])<<32 | uint64(buf[1])
	err := checkElements(v)
	if err != nil {
		return 0
	}
	return narrow(v)
}

func narrow(v uint64) int {
	return int(v)
}

func checkElements(n uint64) error {
	if n > 1<<20 {
		return errors.New("too many elements")
	}
	return nil
}
`,
	})
	wantClean(t, findings, suppressed, 0)
}

// Taint in a decode helper that no decode entry reaches is not reported.
func TestLimitreachUnreachableFromEntriesClean(t *testing.T) {
	findings, suppressed := runCheck(t, "wrapreach", map[string]string{
		"a.go": `package fixture

func helper(buf []byte) int {
	return narrow(uint64(buf[0])<<32 | uint64(buf[1]))
}

func narrow(v uint64) int {
	return int(v)
}
`,
	})
	wantClean(t, findings, suppressed, 0)
}

// --- summary-level facts -------------------------------------------------

func TestSummaryReturnLoopAndSeedFacts(t *testing.T) {
	m, err := LoadSources(map[string]string{"a.go": `package fixture

func passthrough(a, b int) int {
	return b
}

func loopy(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}

func readHeader(buf []byte) uint64 {
	return uint64(buf[0])
}
`})
	if err != nil {
		t.Fatalf("LoadSources: %v", err)
	}
	r := m.interproc()

	pt := r.sums["fixture.passthrough"]
	if pt == nil {
		t.Fatal("no summary for passthrough")
	}
	if pt.retMask != paramBit(1) {
		t.Errorf("passthrough retMask = %b, want param bit 1 only", pt.retMask)
	}
	if pt.retSeed {
		t.Error("passthrough retSeed = true, want false")
	}

	lp := r.sums["fixture.loopy"]
	if lp == nil {
		t.Fatal("no summary for loopy")
	}
	if lp.retMask != 0 {
		t.Errorf("loopy retMask = %b, want 0", lp.retMask)
	}

	rh := r.sums["fixture.readHeader"]
	if rh == nil {
		t.Fatal("no summary for readHeader")
	}
	if !rh.retSeed {
		t.Error("readHeader retSeed = false, want true (decode-context byte load)")
	}
	if rh.retMask != paramBit(0) {
		t.Errorf("readHeader retMask = %b, want param bit 0", rh.retMask)
	}
}

// The entry set must cover the stream decoders — including the float32
// variant — with both byte slices and Read-method interfaces untrusted;
// unexported and non-decode names stay out.
func TestEntryDetectionCoversStreamDecoders(t *testing.T) {
	m, err := LoadSources(map[string]string{"a.go": `package fixture

type byteSource interface {
	Read(p []byte) (int, error)
}

func DecompressStream32(r byteSource, buf []byte) int {
	_ = r
	return len(buf)
}

func ScanSalvage(buf []byte) int { return len(buf) }

func Compress(buf []byte) int { return len(buf) }

func helper(buf []byte) int { return len(buf) }
`})
	if err != nil {
		t.Fatalf("LoadSources: %v", err)
	}
	r := m.interproc()
	if mask := r.entries["fixture.DecompressStream32"]; mask != paramBit(0)|paramBit(1) {
		t.Errorf("DecompressStream32 entry mask = %b, want reader and buffer params untrusted", mask)
	}
	if _, ok := r.entries["fixture.ScanSalvage"]; !ok {
		t.Error("ScanSalvage not registered as a decode entry")
	}
	if _, ok := r.entries["fixture.Compress"]; ok {
		t.Error("Compress registered as a decode entry, want encode side excluded")
	}
	if _, ok := r.entries["fixture.helper"]; ok {
		t.Error("unexported helper registered as a decode entry")
	}
}

// Recursive and mutually-recursive summaries reach a fixed point, and the
// taint still crosses the cycle.
func TestSummaryFixpointOnRecursion(t *testing.T) {
	findings, _ := runCheck(t, "wrapreach", map[string]string{
		"a.go": `package fixture

func DecodeNest(buf []byte) int {
	return descend(uint64(buf[0]), 3)
}

func descend(n uint64, depth int) int {
	if depth == 0 {
		return narrow(n)
	}
	return descend(n, depth-1)
}

func narrow(n uint64) int {
	return int(n)
}
`,
	})
	// depth is guarded (the == comparison sanitizes it) but n is not: the
	// cycle must still deliver n's taint to the conversion.
	wantOne(t, findings, 15, "fixture.DecodeNest → fixture.descend → fixture.narrow")
}
