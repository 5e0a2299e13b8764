// Package huffman implements a canonical Huffman coder over integer symbol
// alphabets. It is the entropy stage of the SZ re-implementation (encoding
// linear-scaling quantization codes, alphabets up to 2^16+1 symbols) and of
// the FPZIP residual coder (bit-length alphabets).
//
// Codes are canonical: only the code lengths are serialized, and both sides
// rebuild identical code books, which keeps headers small and decoding
// table-driven.
package huffman

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitio"
)

// MaxCodeLen is the longest admissible code. Lengths are forced below this
// bound by the package-depth limiting pass, so a length always fits in 6 bits.
const MaxCodeLen = 58

var (
	// ErrInvalidTable indicates a corrupted serialized code table.
	ErrInvalidTable = errors.New("huffman: invalid code table")
	// ErrBadSymbol indicates an attempt to encode a symbol that had zero
	// frequency when the code book was built.
	ErrBadSymbol = errors.New("huffman: symbol absent from code book")
)

// Codec holds a canonical Huffman code book for symbols in [0, alphabet).
type Codec struct {
	alphabet int
	lengths  []uint8  // code length per symbol; 0 = absent
	codes    []uint64 // canonical code per symbol (valid when lengths>0)

	// Decoding acceleration: first code value and first index per length.
	firstCode  [MaxCodeLen + 2]uint64
	firstIndex [MaxCodeLen + 2]int
	symByOrder []uint32 // symbols sorted by (length, symbol)
	maxLen     uint8
	minLen     uint8
	count      int // number of present symbols

	// lut accelerates decoding of codes up to lutBits long: indexed by the
	// next lutBits of the stream, each entry holds symbol<<6 | length
	// (plus 1 so 0 means "no short code here; take the slow path").
	lut     []uint32
	lutBits uint
}

// lutMaxBits caps the fast-path table at 2^12 entries (16 KiB), which
// covers the code lengths that dominate SZ quantization-code streams.
const lutMaxBits = 12

type hnode struct {
	freq   uint64
	symbol int // -1 for internal
	left   *hnode
	right  *hnode
	seq    int // tie-break for determinism
}

type hheap []*hnode

func (h hheap) Len() int { return len(h) }
func (h hheap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].seq < h[j].seq
}
func (h hheap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *hheap) Push(x interface{}) { *h = append(*h, x.(*hnode)) }
func (h *hheap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Build constructs a canonical code book from the frequency table freqs,
// indexed by symbol. Symbols with zero frequency receive no code.
func Build(freqs []uint64) (*Codec, error) {
	c := &Codec{
		alphabet: len(freqs),
		lengths:  make([]uint8, len(freqs)),
		codes:    make([]uint64, len(freqs)),
	}
	h := make(hheap, 0, len(freqs))
	seq := 0
	for sym, f := range freqs {
		if f > 0 {
			h = append(h, &hnode{freq: f, symbol: sym, seq: seq})
			seq++
			c.count++
		}
	}
	if c.count == 0 {
		return nil, errors.New("huffman: empty frequency table")
	}
	if c.count == 1 {
		// Single symbol: give it a 1-bit code so the stream is decodable.
		c.lengths[h[0].symbol] = 1
	} else {
		heap.Init(&h)
		for h.Len() > 1 {
			a := heap.Pop(&h).(*hnode)
			b := heap.Pop(&h).(*hnode)
			heap.Push(&h, &hnode{freq: a.freq + b.freq, symbol: -1, left: a, right: b, seq: seq})
			seq++
		}
		root := h[0]
		assignDepths(root, 0, c.lengths)
		limitDepths(c.lengths, MaxCodeLen)
	}
	c.finish()
	return c, nil
}

func assignDepths(n *hnode, depth uint8, lengths []uint8) {
	if n.symbol >= 0 {
		lengths[n.symbol] = depth
		return
	}
	assignDepths(n.left, depth+1, lengths)
	assignDepths(n.right, depth+1, lengths)
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

// finish derives canonical codes and decode tables from c.lengths.
func (c *Codec) finish() {
	type ls struct {
		sym int
		l   uint8
	}
	present := make([]ls, 0, c.count)
	c.count = 0
	for sym, l := range c.lengths {
		if l > 0 {
			present = append(present, ls{sym, l})
			c.count++
		}
	}
	sort.Slice(present, func(i, j int) bool {
		if present[i].l != present[j].l {
			return present[i].l < present[j].l
		}
		return present[i].sym < present[j].sym
	})
	c.symByOrder = make([]uint32, len(present))
	if len(present) == 0 {
		return
	}
	c.minLen = present[0].l
	c.maxLen = present[len(present)-1].l
	code := uint64(0)
	prevLen := present[0].l
	for l := uint8(0); l <= prevLen; l++ {
		c.firstIndex[l] = 0
	}
	c.firstCode[prevLen] = 0
	for i, p := range present {
		if p.l != prevLen {
			for l := prevLen + 1; l <= p.l; l++ {
				code <<= 1
				c.firstCode[l] = code
				c.firstIndex[l] = i
			}
			prevLen = p.l
		}
		c.codes[p.sym] = code
		//lint:allow intnarrow sym < alphabet <= 1<<24 (ParseTable/Build bound)
		c.symByOrder[i] = uint32(p.sym)
		code++
	}

	// Fast-path table for short codes.
	c.lutBits = uint(c.maxLen)
	if c.lutBits > lutMaxBits {
		c.lutBits = lutMaxBits
	}
	c.lut = make([]uint32, 1<<c.lutBits)
	for _, p := range present {
		if uint(p.l) > c.lutBits {
			break // present is sorted by length
		}
		//lint:allow intnarrow sym < alphabet <= 1<<24 (ParseTable/Build bound)
		entry := uint32(p.sym)<<6 | (uint32(p.l) + 1)
		base := c.codes[p.sym] << (c.lutBits - uint(p.l))
		span := uint64(1) << (c.lutBits - uint(p.l))
		for off := uint64(0); off < span; off++ {
			c.lut[base+off] = entry
		}
	}
}

// Encode appends the code for symbol to w.
func (c *Codec) Encode(w *bitio.Writer, symbol int) error {
	if symbol < 0 || symbol >= c.alphabet || c.lengths[symbol] == 0 {
		return fmt.Errorf("%w: %d", ErrBadSymbol, symbol)
	}
	w.WriteBits(c.codes[symbol], uint(c.lengths[symbol]))
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
	if symbol < 0 || symbol >= c.alphabet {
		return 0
	}
	return int(c.lengths[symbol])
}

// Alphabet returns the alphabet size the codec was built for.
func (c *Codec) Alphabet() int { return c.alphabet }

// AppendTable serializes the code book to dst. The format is:
// uvarint(alphabet), uvarint(#present), then for each present symbol in
// increasing order uvarint(delta from previous symbol + 1) and 6 bits of
// length packed two-per-... (kept simple: one byte per length).
func (c *Codec) AppendTable(dst []byte) []byte {
	dst = bitio.AppendUvarint(dst, uint64(c.alphabet))
	dst = bitio.AppendUvarint(dst, uint64(c.count))
	prev := -1
	for sym, l := range c.lengths {
		if l == 0 {
			continue
		}
		dst = bitio.AppendUvarint(dst, uint64(sym-prev))
		dst = append(dst, byte(l))
		prev = sym
	}
	return dst
}

// ParseTable reconstructs a Codec from data produced by AppendTable,
// returning the codec and the number of bytes consumed.
func ParseTable(data []byte) (*Codec, int, error) {
	alpha, n := bitio.Uvarint(data)
	if n == 0 || alpha == 0 || alpha > 1<<24 {
		return nil, 0, ErrInvalidTable
	}
	off := n
	cnt, n := bitio.Uvarint(data[off:])
	if n == 0 || cnt == 0 || cnt > alpha {
		return nil, 0, ErrInvalidTable
	}
	off += n
	c := &Codec{
		//lint:allow intnarrow guarded above: alpha <= 1<<24
		alphabet: int(alpha),
		lengths:  make([]uint8, alpha),
		codes:    make([]uint64, alpha),
	}
	prev := -1
	for i := uint64(0); i < cnt; i++ {
		d, n := bitio.Uvarint(data[off:])
		if n == 0 || d == 0 {
			return nil, 0, ErrInvalidTable
		}
		off += n
		if d > alpha {
			// A delta beyond the alphabet size cannot be valid, and an
			// unchecked int(d) of a near-2^64 delta would wrap negative
			// and index lengths[] out of range below.
			return nil, 0, ErrInvalidTable
		}
		//lint:allow intnarrow guarded above: d <= alpha <= 1<<24
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
		c.lengths[sym] = l
		prev = sym
	}
	// Validate Kraft inequality to reject corrupt tables that would make
	// Decode loop or misbehave.
	var kraft uint64
	for _, l := range c.lengths {
		if l > 0 {
			kraft += uint64(1) << (MaxCodeLen - l)
		}
	}
	if kraft > 1<<MaxCodeLen {
		return nil, 0, ErrInvalidTable
	}
	c.finish()
	return c, off, nil
}

// EncodeAll is a convenience that Huffman-encodes all symbols into a fresh
// writer and returns (table || bit padding-aligned payload) with a uvarint
// payload-bit-count between them.
func EncodeAll(symbols []int, alphabet int) ([]byte, error) {
	freqs := make([]uint64, alphabet)
	for _, s := range symbols {
		if s < 0 || s >= alphabet {
			return nil, fmt.Errorf("huffman: symbol %d out of range %d", s, alphabet)
		}
		freqs[s]++
	}
	c, err := Build(freqs)
	if err != nil {
		return nil, err
	}
	w := bitio.NewWriter(len(symbols) / 2)
	for _, s := range symbols {
		if err := c.Encode(w, s); err != nil {
			return nil, err
		}
	}
	out := c.AppendTable(nil)
	out = bitio.AppendUvarint(out, uint64(len(symbols)))
	out = append(out, w.Bytes()...)
	return out, nil
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
