// Package huffman implements a canonical Huffman coder over integer symbol
// alphabets. It is the entropy stage of the SZ re-implementation (encoding
// linear-scaling quantization codes, alphabets up to 2^16+1 symbols) and of
// ISABELA's correction stream (bit-length alphabets).
//
// Codes are canonical: only the code lengths are serialized, and both sides
// rebuild identical code books, which keeps headers small and decoding
// table-driven. A code book keeps one entry per symbol present, not per
// symbol of the declared alphabet, so a decoder's memory is bounded by the
// serialized table's own bytes. EncodeAll counts frequencies over the span
// from the lowest to the highest nonzero symbol it is given, which for SZ's
// codes around the midpoint of a 65,537-symbol alphabet is a small fraction
// of it.
package huffman

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitio"
)

// MaxCodeLen is the longest admissible code. Lengths are forced below this
// bound by the package-depth limiting pass, so a length always fits in 6 bits.
const MaxCodeLen = 58

// maxAlphabet bounds the alphabet on both sides, so a symbol always fits in
// the 26 bits a LUT entry leaves it.
const maxAlphabet = 1 << 24

var (
	// ErrInvalidTable indicates a corrupted serialized code table.
	ErrInvalidTable = errors.New("huffman: invalid code table")
	// ErrBadSymbol indicates an attempt to encode a symbol that had zero
	// frequency when the code book was built.
	ErrBadSymbol = errors.New("huffman: symbol absent from code book")

	errEmpty = errors.New("huffman: empty frequency table")
)

// Codec holds a canonical Huffman code book for symbols in [0, alphabet).
// It keeps one entry per present symbol, and decoding adds a lookup table of
// at most 2^lutMaxBits entries.
type Codec struct {
	alphabet int
	syms     []uint32 // present symbols, ascending
	lengths  []uint8  // code length per present symbol (parallel to syms)
	codes    []uint64 // canonical code per present symbol (parallel to syms)

	// Decoding acceleration: first code value and first index per length.
	firstCode  [MaxCodeLen + 2]uint64
	firstIndex [MaxCodeLen + 2]int
	symByOrder []uint32 // symbols sorted by (length, symbol)
	maxLen     uint8
	minLen     uint8

	// lut accelerates decoding of codes up to lutBits long: indexed by the
	// next lutBits of the stream, each entry holds symbol<<6 | length
	// (plus 1 so 0 means "no short code here; take the slow path").
	lut     []uint32
	lutBits uint
}

// lutMaxBits caps the fast-path table at 2^12 entries (16 KiB), which
// covers the code lengths that dominate SZ quantization-code streams.
const lutMaxBits = 12

// Build constructs a canonical code book from the frequency table freqs,
// indexed by symbol. Symbols with zero frequency receive no code.
func Build(freqs []uint64) (*Codec, error) {
	if len(freqs) > maxAlphabet {
		return nil, fmt.Errorf("huffman: alphabet %d exceeds %d", len(freqs), maxAlphabet)
	}
	c, err := fromCounts(len(freqs), 0, freqs, 0)
	if err != nil {
		return nil, err
	}
	c.buildLUT()
	return c, nil
}

// fromCounts builds the code book in which symbol 0 occurs zeros times and
// symbol lo+i occurs counts[i] times. lo+len(counts) must not exceed
// alphabet, and lo must be at least 1 when zeros > 0.
func fromCounts(alphabet int, zeros uint64, counts []uint64, lo int) (*Codec, error) {
	k := 0
	if zeros > 0 {
		k++
	}
	for _, f := range counts {
		if f > 0 {
			k++
		}
	}
	if k == 0 {
		return nil, errEmpty
	}
	c := &Codec{alphabet: alphabet, syms: make([]uint32, 0, k)}
	freqs := make([]uint64, 0, k)
	if zeros > 0 {
		c.syms = append(c.syms, 0)
		freqs = append(freqs, zeros)
	}
	for i, f := range counts {
		if f > 0 {
			//lint:allow intnarrow lo+i < alphabet <= maxAlphabet (callers' bound)
			c.syms = append(c.syms, uint32(lo+i))
			freqs = append(freqs, f)
		}
	}
	c.lengths = codeLengths(freqs)
	c.canonical()
	return c, nil
}

// codeLengths returns the Huffman code length of each symbol whose
// frequency is freqs[i] > 0, with the symbols in ascending order. Leaves are
// nodes 0..k-1 and merged nodes are numbered on from k as they are made, so
// a node's number is its tie-break: among equal frequencies the lower number
// pops first. The lengths are then limited to MaxCodeLen.
func codeLengths(freqs []uint64) []uint8 {
	k := len(freqs)
	lengths := make([]uint8, k)
	if k == 1 {
		// Single symbol: give it a 1-bit code so the stream is decodable.
		lengths[0] = 1
		return lengths
	}
	q := nodeHeap{freq: make([]uint64, 2*k-1), h: make([]int, k, 2*k-1)}
	copy(q.freq, freqs)
	for i := range q.h {
		q.h[i] = i
	}
	for i := k/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	// up[n] is node n's parent until the depth pass below turns it into
	// node n's depth.
	up := make([]int, 2*k-1)
	for next := k; next < 2*k-1; next++ {
		a, b := q.pop(), q.pop()
		q.freq[next] = q.freq[a] + q.freq[b]
		up[a], up[b] = next, next
		q.push(next)
	}
	// A parent is numbered after its children, so walking down from the
	// root (node 2k-2, depth 0) finds each parent's depth already set.
	up[2*k-2] = 0
	for n := 2*k - 3; n >= 0; n-- {
		up[n] = up[up[n]] + 1
	}
	for i := range lengths {
		// Anything past MaxCodeLen is clipped to it by limitDepths.
		d := min(up[i], MaxCodeLen+1)
		//lint:allow intnarrow d <= MaxCodeLen+1 = 59 after the min above
		lengths[i] = uint8(d)
	}
	limitDepths(lengths, MaxCodeLen)
	return lengths
}

// nodeHeap is a binary min-heap of node numbers ordered by (frequency,
// number).
type nodeHeap struct {
	freq []uint64
	h    []int
}

func (q *nodeHeap) less(a, b int) bool {
	fa, fb := q.freq[q.h[a]], q.freq[q.h[b]]
	return fa < fb || fa == fb && q.h[a] < q.h[b]
}

func (q *nodeHeap) push(n int) {
	q.h = append(q.h, n)
	for i := len(q.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			return
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *nodeHeap) pop() int {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	q.down(0)
	return top
}

func (q *nodeHeap) down(i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(q.h) && q.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < len(q.h) && q.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		q.h[i], q.h[m] = q.h[m], q.h[i]
		i = m
	}
}

// limitDepths enforces a maximum code length using the standard
// Kraft-inequality repair: overlong codes are clipped and shorter codes are
// lengthened until the Kraft sum is feasible again.
func limitDepths(lengths []uint8, maxLen uint8) {
	over := false
	for _, l := range lengths {
		if l > maxLen {
			over = true
			break
		}
	}
	if !over {
		return
	}
	// Kraft budget in units of 2^-maxLen.
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
	// Lengthen the shortest codes until feasible.
	for used > budget {
		// find a symbol with the smallest length < maxLen to demote
		best := -1
		for i, l := range lengths {
			if l > 0 && l < maxLen && (best == -1 || l < lengths[best]) {
				best = i
			}
		}
		if best == -1 {
			// Invariant: with ≤ 2^24 symbols at lengths ≤ MaxCodeLen = 58 the
			// Kraft sum always becomes feasible (used ≤ count ≪ 2^58), so a
			// demotable symbol exists; encode-side only — ParseTable
			// validates Kraft on decode instead of repairing.
			panic("huffman: cannot satisfy Kraft inequality") // caller invariant, not input-driven
		}
		used -= uint64(1) << (maxLen - lengths[best])
		lengths[best]++
		used += uint64(1) << (maxLen - lengths[best])
	}
}

// canonical derives the canonical codes and the per-length decode tables
// from c.syms and c.lengths: codes run in (length, symbol) order, so a
// counting pass over the lengths places every symbol without a sort.
func (c *Codec) canonical() {
	var perLen [MaxCodeLen + 1]int
	c.minLen, c.maxLen = MaxCodeLen, 0
	for _, l := range c.lengths {
		perLen[l]++
		c.minLen = min(c.minLen, l)
		c.maxLen = max(c.maxLen, l)
	}
	for l := uint8(1); l <= c.maxLen; l++ {
		c.firstIndex[l] = c.firstIndex[l-1] + perLen[l-1]
		if l > c.minLen {
			c.firstCode[l] = (c.firstCode[l-1] + uint64(perLen[l-1])) << 1
		}
	}
	next := c.firstIndex
	c.codes = make([]uint64, len(c.syms))
	c.symByOrder = make([]uint32, len(c.syms))
	for i, sym := range c.syms {
		l := c.lengths[i]
		j := next[l]
		next[l]++
		c.symByOrder[j] = sym
		c.codes[i] = c.firstCode[l] + uint64(j-c.firstIndex[l])
	}
}

// buildLUT fills the fast-path table for codes up to lutBits long.
func (c *Codec) buildLUT() {
	c.lutBits = min(uint(c.maxLen), lutMaxBits)
	c.lut = make([]uint32, 1<<c.lutBits)
	for i, sym := range c.syms {
		l := uint(c.lengths[i])
		if l > c.lutBits {
			continue
		}
		//lint:allow intnarrow l <= lutBits <= 12 fits the low 6 bits
		entry := sym<<6 | (uint32(l) + 1)
		base := c.codes[i] << (c.lutBits - l)
		span := uint64(1) << (c.lutBits - l)
		for off := uint64(0); off < span; off++ {
			c.lut[base+off] = entry
		}
	}
}

// index returns the position of symbol in c.syms, or -1 if it has no code.
func (c *Codec) index(symbol int) int {
	if symbol < 0 || symbol >= c.alphabet {
		return -1
	}
	//lint:allow intnarrow 0 <= symbol < alphabet <= maxAlphabet, checked above
	if i, ok := slices.BinarySearch(c.syms, uint32(symbol)); ok {
		return i
	}
	return -1
}

// Encode appends the code for symbol to w.
func (c *Codec) Encode(w *bitio.Writer, symbol int) error {
	i := c.index(symbol)
	if i < 0 {
		return fmt.Errorf("%w: %d", ErrBadSymbol, symbol)
	}
	w.WriteBits(c.codes[i], uint(c.lengths[i]))
	return nil
}

// Decode reads one symbol from r using the canonical-code tables: at each
// candidate length l, `code` is a valid code iff it falls in
// [firstCode[l], firstCode[l]+numCodes(l)).
func (c *Codec) Decode(r *bitio.Reader) (int, error) {
	// Fast path: one table lookup resolves any code ≤ lutBits long.
	if peek, got := r.PeekBits(c.lutBits); got == c.lutBits {
		if e := c.lut[peek&(1<<c.lutBits-1)]; e != 0 {
			e--
			r.Skip(uint(e & 63))
			return int(e >> 6), nil
		}
	} else if got > 0 {
		// Near EOF: the remaining bits may still hold a short code.
		if e := c.lut[(peek<<(c.lutBits-got))&(1<<c.lutBits-1)]; e != 0 {
			e--
			if l := uint(e & 63); l <= got {
				r.Skip(l)
				return int(e >> 6), nil
			}
		}
	}
	code, err := r.ReadBits(uint(c.minLen))
	if err != nil {
		return 0, err
	}
	l := c.minLen
	for {
		var count int
		if l < c.maxLen {
			count = c.firstIndex[l+1] - c.firstIndex[l]
		} else {
			count = len(c.symByOrder) - c.firstIndex[l]
		}
		if count > 0 && code >= c.firstCode[l] && code-c.firstCode[l] < uint64(count) {
			//lint:allow intnarrow guarded: code-firstCode[l] < count <= alphabet <= 1<<24
			return int(c.symByOrder[c.firstIndex[l]+int(code-c.firstCode[l])]), nil
		}
		if l >= c.maxLen {
			return 0, ErrInvalidTable
		}
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint64(b)
		l++
	}
}

// Length returns the code length for symbol (0 if absent).
func (c *Codec) Length(symbol int) int {
	if i := c.index(symbol); i >= 0 {
		return int(c.lengths[i])
	}
	return 0
}

// Alphabet returns the alphabet size the codec was built for.
func (c *Codec) Alphabet() int { return c.alphabet }

// AppendTable serializes the code book to dst. The format is:
// uvarint(alphabet), uvarint(#present), then for each present symbol in
// increasing order uvarint(delta from previous symbol + 1) and one byte of
// code length.
func (c *Codec) AppendTable(dst []byte) []byte {
	dst = bitio.AppendUvarint(dst, uint64(c.alphabet))
	dst = bitio.AppendUvarint(dst, uint64(len(c.syms)))
	prev := -1
	for i, sym := range c.syms {
		dst = bitio.AppendUvarint(dst, uint64(int(sym)-prev))
		dst = append(dst, c.lengths[i])
		prev = int(sym)
	}
	return dst
}

// ParseTable reconstructs a Codec from data produced by AppendTable,
// returning the codec and the number of bytes consumed. The codec's memory
// is bounded by the table's bytes, whatever alphabet it declares.
func ParseTable(data []byte) (*Codec, int, error) {
	alpha, n := bitio.Uvarint(data)
	if n == 0 || alpha == 0 || alpha > maxAlphabet {
		return nil, 0, ErrInvalidTable
	}
	off := n
	cnt, n := bitio.Uvarint(data[off:])
	if n == 0 || cnt == 0 || cnt > alpha {
		return nil, 0, ErrInvalidTable
	}
	off += n
	// Each entry takes at least two bytes (a delta and a length), so a
	// count the remaining bytes cannot hold is corrupt.
	if cnt > uint64(len(data)-off)/2 {
		return nil, 0, ErrInvalidTable
	}
	c := &Codec{
		//lint:allow intnarrow guarded above: alpha <= maxAlphabet
		alphabet: int(alpha),
		syms:     make([]uint32, cnt),
		lengths:  make([]uint8, cnt),
	}
	// Kraft sum in units of 2^-MaxCodeLen, checked per entry so that it
	// cannot wrap: each term is at most 2^57.
	var kraft uint64
	prev := -1
	for i := range c.syms {
		d, n := bitio.Uvarint(data[off:])
		if n == 0 || d == 0 {
			return nil, 0, ErrInvalidTable
		}
		off += n
		if d > alpha {
			// A delta beyond the alphabet size cannot be valid, and an
			// unchecked int(d) of a near-2^64 delta would wrap negative.
			return nil, 0, ErrInvalidTable
		}
		//lint:allow intnarrow guarded above: d <= alpha <= maxAlphabet
		sym := prev + int(d)
		if sym >= c.alphabet {
			return nil, 0, ErrInvalidTable
		}
		if off >= len(data) {
			return nil, 0, ErrInvalidTable
		}
		l := data[off]
		off++
		if l == 0 || l > MaxCodeLen {
			return nil, 0, ErrInvalidTable
		}
		// Reject tables that would make Decode loop or misbehave.
		if kraft += uint64(1) << (MaxCodeLen - l); kraft > 1<<MaxCodeLen {
			return nil, 0, ErrInvalidTable
		}
		//lint:allow intnarrow sym < alphabet <= maxAlphabet
		c.syms[i] = uint32(sym)
		c.lengths[i] = l
		prev = sym
	}
	c.canonical()
	c.buildLUT()
	return c, off, nil
}

// EncodeAll is a convenience that Huffman-encodes all symbols into a fresh
// writer and returns (table || bit padding-aligned payload) with a uvarint
// payload-bit-count between them. Frequencies are counted over the span of
// the nonzero symbols given, not the alphabet. Symbol 0 is counted apart:
// it is SZ's unpredictable code, far below the codes clustered around the
// alphabet's midpoint, and a span reaching down to it would cover half of
// SZ's 65,537-symbol alphabet.
func EncodeAll(symbols []int, alphabet int) ([]byte, error) {
	if alphabet > maxAlphabet {
		return nil, fmt.Errorf("huffman: alphabet %d exceeds %d", alphabet, maxAlphabet)
	}
	var zeros uint64
	lo, hi := alphabet, -1
	for _, s := range symbols {
		switch {
		case s < 0 || s >= alphabet:
			return nil, fmt.Errorf("huffman: symbol %d out of range %d", s, alphabet)
		case s == 0:
			zeros++
		default:
			lo, hi = min(lo, s), max(hi, s)
		}
	}
	span := make([]uint64, max(hi-lo+1, 0))
	for _, s := range symbols {
		if s != 0 {
			span[s-lo]++
		}
	}
	c, err := fromCounts(alphabet, zeros, span, lo)
	if err != nil {
		return nil, err
	}
	// The counts are spent, so span becomes the encoding table: a code is
	// at most MaxCodeLen = 58 bits, so code<<6 | length fits a word.
	var enc0 uint64
	for i, sym := range c.syms {
		e := c.codes[i]<<6 | uint64(c.lengths[i])
		if sym == 0 {
			enc0 = e
		} else {
			span[int(sym)-lo] = e
		}
	}
	w := bitio.NewWriter(len(symbols) / 2)
	for _, s := range symbols {
		e := enc0
		if s != 0 {
			e = span[s-lo]
		}
		w.WriteBits(e>>6, uint(e&63))
	}
	payload := w.Bytes()
	// A table entry is at most 5 bytes (a delta <= 2^24 takes 4), and the
	// two header uvarints and the count at most 18.
	out := make([]byte, 0, 18+5*len(c.syms)+len(payload))
	out = c.AppendTable(out)
	out = bitio.AppendUvarint(out, uint64(len(symbols)))
	return append(out, payload...), nil
}

// DecodeAll inverts EncodeAll, returning the symbols and bytes consumed.
func DecodeAll(data []byte) ([]int, int, error) {
	c, off, err := ParseTable(data)
	if err != nil {
		return nil, 0, err
	}
	n, k := bitio.Uvarint(data[off:])
	if k == 0 || n > uint64(len(data)-off-k)*8 {
		// Every symbol consumes at least one payload bit, so a count
		// beyond the remaining bit budget is corrupt — and rejecting it
		// here also stops attacker-chosen allocation sizes.
		return nil, 0, ErrInvalidTable
	}
	off += k
	r := bitio.NewReader(data[off:])
	out := make([]int, n)
	for i := range out {
		s, err := c.Decode(r)
		if err != nil {
			return nil, 0, err
		}
		out[i] = s
	}
	//lint:allow intnarrow BitsRead <= 8*len(data), fits int
	off += int((r.BitsRead() + 7) / 8)
	return out, off, nil
}
