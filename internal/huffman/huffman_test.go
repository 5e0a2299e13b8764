package huffman

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
	"repro/internal/testutil"
)

func roundTrip(t *testing.T, symbols []int, alphabet int) {
	t.Helper()
	buf, err := EncodeAll(symbols, alphabet)
	if err != nil {
		t.Fatalf("EncodeAll: %v", err)
	}
	got, n, err := DecodeAll(buf)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if len(got) != len(symbols) {
		t.Fatalf("len = %d, want %d", len(got), len(symbols))
	}
	for i := range got {
		if got[i] != symbols[i] {
			t.Fatalf("symbol %d = %d, want %d", i, got[i], symbols[i])
		}
	}
}

func TestRoundTripSmall(t *testing.T) {
	roundTrip(t, []int{0, 1, 2, 1, 0, 1, 1, 1, 3}, 4)
}

func TestRoundTripSingleSymbol(t *testing.T) {
	syms := make([]int, 1000)
	for i := range syms {
		syms[i] = 7
	}
	roundTrip(t, syms, 16)
}

func TestRoundTripTwoSymbols(t *testing.T) {
	syms := make([]int, 100)
	for i := range syms {
		syms[i] = i % 2
	}
	roundTrip(t, syms, 2)
}

func TestRoundTripSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]int, 50000)
	for i := range syms {
		// Geometric-ish distribution centered at 32768, like SZ quant codes.
		v := 32768 + int(rng.NormFloat64()*3)
		if v < 0 {
			v = 0
		}
		if v > 65536 {
			v = 65536
		}
		syms[i] = v
	}
	roundTrip(t, syms, 65537)
}

func TestRoundTripUniformLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	syms := make([]int, 20000)
	for i := range syms {
		syms[i] = rng.Intn(1024)
	}
	roundTrip(t, syms, 1024)
}

func TestCompressionBeatsRaw(t *testing.T) {
	// Highly skewed stream must compress well below 8 bits/symbol.
	rng := rand.New(rand.NewSource(3))
	syms := make([]int, 100000)
	for i := range syms {
		if rng.Float64() < 0.95 {
			syms[i] = 0
		} else {
			syms[i] = 1 + rng.Intn(255)
		}
	}
	buf, err := EncodeAll(syms, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > len(syms)/2 {
		t.Fatalf("poor compression: %d bytes for %d symbols", len(buf), len(syms))
	}
}

func TestEncodeAbsentSymbol(t *testing.T) {
	c, err := Build([]uint64{5, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(0)
	if err := c.Encode(w, 1); err == nil {
		t.Fatal("expected error encoding zero-frequency symbol")
	}
	if err := c.Encode(w, 99); err == nil {
		t.Fatal("expected error encoding out-of-range symbol")
	}
}

func TestEmptyFrequencies(t *testing.T) {
	for _, freqs := range [][]uint64{nil, {0}, {0, 0, 0}} {
		if _, err := Build(freqs); err == nil {
			t.Fatalf("Build(%v): expected error for empty frequency table", freqs)
		}
	}
	if _, err := EncodeAll(nil, 4); err == nil {
		t.Fatal("EncodeAll(nil): expected error for empty input")
	}
}

func TestEncodeAllRejectsOutOfRange(t *testing.T) {
	if _, err := EncodeAll([]int{0, 5}, 4); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := EncodeAll([]int{-1}, 4); err == nil {
		t.Fatal("expected range error for negative symbol")
	}
}

func TestParseTableCorrupt(t *testing.T) {
	syms := []int{0, 1, 2, 3, 2, 1}
	buf, err := EncodeAll(syms, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix must error, never panic.
	for i := 0; i < len(buf)-1; i++ {
		if _, _, err := DecodeAll(buf[:i]); err == nil {
			// Some truncations may still decode fewer bytes validly only if
			// the full payload happens to be self-contained; the table or
			// count parse must fail for very short prefixes.
			if i < 4 {
				t.Fatalf("prefix %d decoded without error", i)
			}
		}
	}
	// Bit flips in the table region must not panic.
	for i := 0; i < len(buf); i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xff
		_, _, _ = DecodeAll(mut)
	}
}

func TestCodeLengthsAreKraftFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	freqs := make([]uint64, 300)
	for i := range freqs {
		freqs[i] = uint64(rng.Intn(1000))
	}
	freqs[0] = 1 << 40 // extreme skew
	c, err := Build(freqs)
	if err != nil {
		t.Fatal(err)
	}
	var kraft float64
	for s := 0; s < c.Alphabet(); s++ {
		if l := c.Length(s); l > 0 {
			kraft += 1 / float64(uint64(1)<<l)
			if l > MaxCodeLen {
				t.Fatalf("code length %d exceeds max", l)
			}
		}
	}
	if kraft > 1.0000001 {
		t.Fatalf("Kraft sum %v > 1", kraft)
	}
}

func TestLimitDepths(t *testing.T) {
	// Fibonacci-like frequencies force deep trees; verify repair keeps codes
	// decodable.
	n := 80
	freqs := make([]uint64, n)
	a, b := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		freqs[i] = a
		a, b = b, a+b
		if a > 1<<55 {
			a = 1 << 55
		}
		if b > 1<<55 {
			b = 1 << 55
		}
	}
	syms := make([]int, 500)
	rng := rand.New(rand.NewSource(5))
	for i := range syms {
		syms[i] = rng.Intn(n)
	}
	roundTrip(t, syms, n)
}

// Property: random symbol streams round-trip for arbitrary alphabets.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, alphaSel uint16, length uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := int(alphaSel%2000) + 1
		n := int(length%5000) + 1
		syms := make([]int, n)
		for i := range syms {
			syms[i] = rng.Intn(alphabet)
		}
		buf, err := EncodeAll(syms, alphabet)
		if err != nil {
			return false
		}
		got, _, err := DecodeAll(buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRoundTripPreservesLengths(t *testing.T) {
	freqs := []uint64{10, 0, 5, 5, 0, 0, 1, 100}
	c, err := Build(freqs)
	if err != nil {
		t.Fatal(err)
	}
	table := c.AppendTable(nil)
	c2, n, err := ParseTable(table)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(table) {
		t.Fatalf("consumed %d of %d", n, len(table))
	}
	for s := range freqs {
		if c.Length(s) != c2.Length(s) {
			t.Fatalf("symbol %d length mismatch: %d vs %d", s, c.Length(s), c2.Length(s))
		}
	}
}

func BenchmarkEncode64K(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	syms := make([]int, 1<<16)
	for i := range syms {
		syms[i] = 32768 + int(rng.NormFloat64()*2)
	}
	b.SetBytes(int64(len(syms) * 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeAll(syms, 65537); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode64K(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	syms := make([]int, 1<<16)
	for i := range syms {
		syms[i] = 32768 + int(rng.NormFloat64()*2)
	}
	buf, err := EncodeAll(syms, 65537)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(syms) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeAll(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLUTDecodeMatchesSlowPath(t *testing.T) {
	// Random skewed codecs: the fast table path must agree with canonical
	// decoding for every symbol, including codes longer than the table.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		alphabet := rng.Intn(3000) + 2
		freqs := make([]uint64, alphabet)
		for i := range freqs {
			if rng.Float64() < 0.3 {
				freqs[i] = uint64(rng.Intn(1_000_000)) + 1
			}
		}
		freqs[rng.Intn(alphabet)] = 1 << 50 // force long codes for the rare ones
		c, err := Build(freqs)
		if err != nil {
			t.Fatal(err)
		}
		var syms []int
		for s := 0; s < alphabet; s++ {
			if c.Length(s) > 0 {
				syms = append(syms, s, s, s)
			}
		}
		w := bitio.NewWriter(0)
		for _, s := range syms {
			if err := c.Encode(w, s); err != nil {
				t.Fatal(err)
			}
		}
		r := bitio.NewReader(w.Bytes())
		for i, want := range syms {
			got, err := c.Decode(r)
			if err != nil {
				t.Fatalf("trial %d symbol %d: %v", trial, i, err)
			}
			if got != want {
				t.Fatalf("trial %d symbol %d: %d != %d", trial, i, got, want)
			}
		}
	}
}

// --- Test-only oracle: the dense coder this package used to ship --------
//
// denseEncodeAll is the alphabet-sized Build, AppendTable and EncodeAll
// the sparse coder replaced, kept verbatim in behaviour so that the bytes
// the sparse coder writes stay pinned to it.

type denseNode struct {
	freq        uint64
	symbol      int // -1 for internal
	left, right *denseNode
	seq         int
}

type denseHeap []*denseNode

func (h denseHeap) Len() int { return len(h) }
func (h denseHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].seq < h[j].seq
}
func (h denseHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *denseHeap) Push(x any)   { *h = append(*h, x.(*denseNode)) }
func (h *denseHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }
func denseDepths(n *denseNode, depth uint8, lengths []uint8) {
	if n.symbol >= 0 {
		lengths[n.symbol] = depth
		return
	}
	denseDepths(n.left, depth+1, lengths)
	denseDepths(n.right, depth+1, lengths)
}

// denseLimitDepths is the Kraft repair over an alphabet-sized length table.
func denseLimitDepths(lengths []uint8, maxLen uint8) {
	over := false
	for _, l := range lengths {
		if l > maxLen {
			over = true
		}
	}
	if !over {
		return
	}
	budget := uint64(1) << maxLen
	var used uint64
	for i, l := range lengths {
		if l == 0 {
			continue
		}
		if l > maxLen {
			lengths[i] = maxLen
			l = maxLen
		}
		used += uint64(1) << (maxLen - l)
	}
	for used > budget {
		best := -1
		for i, l := range lengths {
			if l > 0 && l < maxLen && (best == -1 || l < lengths[best]) {
				best = i
			}
		}
		used -= uint64(1) << (maxLen - lengths[best])
		lengths[best]++
		used += uint64(1) << (maxLen - lengths[best])
	}
}

// denseBuild returns per-symbol code lengths and canonical codes.
func denseBuild(freqs []uint64) (lengths []uint8, codes []uint64) {
	lengths = make([]uint8, len(freqs))
	codes = make([]uint64, len(freqs))
	h := make(denseHeap, 0, len(freqs))
	seq := 0
	for sym, f := range freqs {
		if f > 0 {
			h = append(h, &denseNode{freq: f, symbol: sym, seq: seq})
			seq++
		}
	}
	if len(h) == 1 {
		lengths[h[0].symbol] = 1
	} else {
		heap.Init(&h)
		for h.Len() > 1 {
			a := heap.Pop(&h).(*denseNode)
			b := heap.Pop(&h).(*denseNode)
			heap.Push(&h, &denseNode{freq: a.freq + b.freq, symbol: -1, left: a, right: b, seq: seq})
			seq++
		}
		denseDepths(h[0], 0, lengths)
		denseLimitDepths(lengths, MaxCodeLen)
	}
	type ls struct {
		sym int
		l   uint8
	}
	var present []ls
	for sym, l := range lengths {
		if l > 0 {
			present = append(present, ls{sym, l})
		}
	}
	sort.Slice(present, func(i, j int) bool {
		if present[i].l != present[j].l {
			return present[i].l < present[j].l
		}
		return present[i].sym < present[j].sym
	})
	code := uint64(0)
	prevLen := present[0].l
	for _, p := range present {
		for ; prevLen < p.l; prevLen++ {
			code <<= 1
		}
		codes[p.sym] = code
		code++
	}
	return lengths, codes
}

func denseEncodeAll(symbols []int, alphabet int) []byte {
	freqs := make([]uint64, alphabet)
	for _, s := range symbols {
		freqs[s]++
	}
	lengths, codes := denseBuild(freqs)
	w := bitio.NewWriter(0)
	for _, s := range symbols {
		w.WriteBits(codes[s], uint(lengths[s]))
	}
	out := bitio.AppendUvarint(nil, uint64(alphabet))
	count := 0
	for _, l := range lengths {
		if l > 0 {
			count++
		}
	}
	out = bitio.AppendUvarint(out, uint64(count))
	prev := -1
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		out = bitio.AppendUvarint(out, uint64(sym-prev))
		out = append(out, l)
		prev = sym
	}
	out = bitio.AppendUvarint(out, uint64(len(symbols)))
	return append(out, w.Bytes()...)
}

// TestEncodeAllMatchesDenseOracle pins EncodeAll's bytes (table, count and
// payload) to the dense coder's, over alphabets from 2 to SZ's 65,537, with
// symbol 0 present and absent, a single symbol, and frequencies deep enough
// that limitDepths repairs the lengths.
func TestEncodeAllMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(name string, syms []int, alphabet int) {
		t.Helper()
		got, err := EncodeAll(syms, alphabet)
		if err != nil {
			t.Fatalf("%s: EncodeAll: %v", name, err)
		}
		if want := denseEncodeAll(syms, alphabet); !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes differ from the dense oracle's %d", name, len(got), len(want))
		}
		roundTrip(t, syms, alphabet)
	}
	for _, alphabet := range []int{2, 3, 17, 256, 1024, 4097, 65537} {
		for trial := 0; trial < 8; trial++ {
			n := 1 + rng.Intn(3000)
			syms := make([]int, n)
			mid, spread := alphabet/2, 1+rng.Intn(alphabet)
			for i := range syms {
				// SZ-shaped: codes around the midpoint, plus symbol 0
				// (unpredictable) in half the trials.
				s := mid + int(rng.NormFloat64()*float64(spread)/4)
				if s < 1 || s >= alphabet {
					s = 1 + rng.Intn(alphabet-1)
				}
				if trial%2 == 0 && rng.Intn(20) == 0 {
					s = 0
				}
				syms[i] = s
			}
			check(fmt.Sprintf("alphabet %d trial %d", alphabet, trial), syms, alphabet)
		}
		one := make([]int, 50)
		for i := range one {
			one[i] = alphabet - 1
		}
		check(fmt.Sprintf("alphabet %d single symbol", alphabet), one, alphabet)
		check(fmt.Sprintf("alphabet %d zeros only", alphabet), make([]int, 9), alphabet)
		check(fmt.Sprintf("alphabet %d zero and top", alphabet), []int{0, alphabet - 1, 0}, alphabet)
	}
	// Fibonacci counts make the deepest tree a symbol stream of a given
	// length can: 2^20 symbols reach depth 29.
	const deep = 80
	var syms []int
	a, b := 1, 1
	for s := 0; s < deep && len(syms) < 1<<20; s++ {
		for i := 0; i < a && len(syms) < 1<<20; i++ {
			syms = append(syms, s)
		}
		a, b = b, a+b
	}
	check("fibonacci stream", syms, deep)
	// Depth past MaxCodeLen needs ~2^40 symbols, so the repair is pinned
	// through Build on the frequencies TestLimitDepths uses.
	freqs := make([]uint64, deep)
	x, y := uint64(1), uint64(1)
	for i := range freqs {
		freqs[i] = x
		x, y = y, min(x+y, 1<<55)
	}
	c, err := Build(freqs)
	if err != nil {
		t.Fatal(err)
	}
	lengths, _ := denseBuild(freqs)
	repaired := false
	for s, l := range lengths {
		if c.Length(s) != int(l) {
			t.Fatalf("fibonacci build: symbol %d length %d, dense %d", s, c.Length(s), l)
		}
		repaired = repaired || l == MaxCodeLen
	}
	if !repaired {
		t.Fatal("fibonacci build: no code reached MaxCodeLen, so limitDepths did not repair")
	}
	if !bytes.Equal(c.AppendTable(nil), denseTable(lengths)) {
		t.Fatal("fibonacci build: table bytes differ from the dense oracle")
	}
}

func denseTable(lengths []uint8) []byte {
	out := bitio.AppendUvarint(nil, uint64(len(lengths)))
	count := 0
	for _, l := range lengths {
		if l > 0 {
			count++
		}
	}
	out = bitio.AppendUvarint(out, uint64(count))
	prev := -1
	for sym, l := range lengths {
		if l > 0 {
			out = bitio.AppendUvarint(out, uint64(sym-prev))
			out = append(out, l)
			prev = sym
		}
	}
	return out
}

// allocatedBy returns the heap bytes allocated while fn runs.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParseTableMemoryFollowsTableBytes: a table's decode memory is bounded
// by its own bytes, whatever alphabet it declares. The 7-byte table below
// declares a 2^24-symbol alphabet with one symbol; the second one also
// claims 2^24 present symbols it has no bytes for.
func TestParseTableMemoryFollowsTableBytes(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's own allocations swamp the ceiling")
	}
	const ceiling = 8 << 10
	oneSymbol := []byte{0x80, 0x80, 0x80, 0x08, 0x01, 0x01, 0x01}
	var err error
	if n := allocatedBy(func() { _, _, err = ParseTable(oneSymbol) }); n >= ceiling || err != nil {
		t.Fatalf("one-symbol table: %d bytes allocated, err %v", n, err)
	}
	stream := append(append([]byte(nil), oneSymbol...), 0x08, 0x00) // 8 symbols, one byte of zeros
	var got []int
	if n := allocatedBy(func() { got, _, err = DecodeAll(stream) }); n >= ceiling || err != nil || len(got) != 8 {
		t.Fatalf("one-symbol stream: %d bytes allocated, %d symbols, err %v", n, len(got), err)
	}
	overCount := []byte{0x80, 0x80, 0x80, 0x08, 0x80, 0x80, 0x80, 0x08, 0x01, 0x01, 0x01}
	if n := allocatedBy(func() { _, _, err = ParseTable(overCount) }); n >= ceiling || !errors.Is(err, ErrInvalidTable) {
		t.Fatalf("over-count table: %d bytes allocated, err %v", n, err)
	}
}

// TestParseTableKraftCannotWrap: 128 codes of length 1 sum to 2^64 in
// units of 2^-58, which wraps a 64-bit Kraft sum to 0; the table must be
// refused rather than build codes that index past the lookup table.
func TestParseTableKraftCannotWrap(t *testing.T) {
	table := []byte{0x80, 0x02, 0x80, 0x01} // alphabet 256, 128 symbols
	for i := 0; i < 128; i++ {
		table = append(table, 1, 1)
	}
	if _, _, err := ParseTable(table); !errors.Is(err, ErrInvalidTable) {
		t.Fatalf("err = %v, want ErrInvalidTable", err)
	}
}
