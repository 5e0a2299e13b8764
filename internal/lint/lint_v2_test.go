package lint

import "testing"

// Fixture tests for intnarrow and the dataflow check allochot. Each check
// gets at least one seeded violation in the shape of the bug it caught in
// this repository, one clean variant exercising the analysis that clears
// it, and a suppression test.

// --- intnarrow ---------------------------------------------------------

func TestIntnarrowConversion(t *testing.T) {
	findings, _ := runCheck(t, "intnarrow", map[string]string{
		"a.go": `package fixture

func Narrow(x uint64) uint32 {
	return uint32(x)
}
`,
	})
	wantOne(t, findings, 4, "may truncate")
}

// The shape of huffman.ParseTable before a4e3dd6: the decoded delta d is
// checked only against zero, so a near-2^64 varint flips int(d) negative
// and sym indexes lengths[] out of range. uint64 -> int: 64 value bits do
// not fit int's 63.
func TestIntnarrowSignFlip(t *testing.T) {
	findings, _ := runCheck(t, "intnarrow", map[string]string{
		"a.go": `package fixture

import "encoding/binary"

func ParseTable(data []byte, lengths []uint8) bool {
	prev, off := -1, 0
	for off < len(data) {
		d, n := binary.Uvarint(data[off:])
		if n <= 0 || d == 0 {
			return false
		}
		off += n
		sym := prev + int(d)
		if sym >= len(lengths) {
			return false
		}
		lengths[sym] = 1
		prev = sym
	}
	return true
}
`,
	})
	wantOne(t, findings, 13, "may truncate")
}

func TestIntnarrowOverWideShift(t *testing.T) {
	findings, _ := runCheck(t, "intnarrow", map[string]string{
		"a.go": `package fixture

func Fill(x uint32) uint32 {
	return x << 32
}
`,
	})
	wantOne(t, findings, 4, "fill value")
}

func TestIntnarrowBoundedOperandsClean(t *testing.T) {
	findings, suppressed := runCheck(t, "intnarrow", map[string]string{
		"a.go": `package fixture

func Pack(x uint64, b byte) uint64 {
	lo := uint32(x & 0xFFFFFFFF) // mask bounds the operand
	hi := uint16(x >> 48)        // shift leaves 16 value bits
	m := byte(x % 256)           // remainder bounds the operand
	w := uint64(b)               // widening is always safe
	s := x >> 31                 // shift below the width is fine
	return uint64(lo) + uint64(hi) + uint64(m) + w + s
}
`,
	})
	wantClean(t, findings, suppressed, 0)
}

func TestIntnarrowSuppressed(t *testing.T) {
	findings, suppressed := runCheck(t, "intnarrow", map[string]string{
		"a.go": `package fixture

func Trunc(x uint64) byte {
	return byte(x) //lint:allow intnarrow caller guarantees x < 256
}
`,
	})
	wantClean(t, findings, suppressed, 1)
}

// --- allochot ----------------------------------------------------------

func TestAllochotMakeInLoop(t *testing.T) {
	findings, _ := runCheck(t, "allochot", map[string]string{
		"a.go": `package fixture

func Sum(rows [][]int) int {
	t := 0
	for _, r := range rows {
		buf := make([]int, len(r))
		copy(buf, r)
		t += buf[0]
	}
	return t
}
`,
	})
	wantOne(t, findings, 6, "hoist the buffer")
}

// The shape of huffman.Build before a4e3dd6: the heap starts as an empty
// hheap and grows one append per used symbol before heap.Init, so every
// Build reallocated it log(n) times.
func TestAllochotAppendFromEmpty(t *testing.T) {
	findings, _ := runCheck(t, "allochot", map[string]string{
		"a.go": `package fixture

type hnode struct {
	freq   uint64
	symbol int
}

type hheap []*hnode

func Build(freqs []uint64) hheap {
	var h hheap
	for sym, f := range freqs {
		if f > 0 {
			h = append(h, &hnode{freq: f, symbol: sym})
		}
	}
	return h
}
`,
	})
	wantOne(t, findings, 14, "preallocate")
}

func TestAllochotPreallocatedClean(t *testing.T) {
	findings, suppressed := runCheck(t, "allochot", map[string]string{
		"a.go": `package fixture

func Double(xs []int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		out = append(out, 2*x)
	}
	return out
}
`,
	})
	wantClean(t, findings, suppressed, 0)
}

func TestAllochotSuppressed(t *testing.T) {
	findings, suppressed := runCheck(t, "allochot", map[string]string{
		"a.go": `package fixture

func Headers(n int) [][]byte {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		//lint:allow allochot each header is retained by the caller
		h := make([]byte, 8)
		out = append(out, h)
	}
	return out
}
`,
	})
	wantClean(t, findings, suppressed, 1)
}
