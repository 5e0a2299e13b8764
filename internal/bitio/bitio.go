// Package bitio provides MSB-first bit-level readers and writers plus
// variable-length integer encodings. It is the substrate shared by the
// entropy-coding stages of every compressor in this repository (Huffman,
// ZFP's embedded bit-plane coder, FPZIP's residual coder and ISABELA's
// index/correction streams).
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the
// underlying buffer.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of stream")

// Writer accumulates bits MSB-first into an internal byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // pending bits, left-aligned within the low `n` positions
	n    uint   // number of pending bits in cur (0..63)
	bits uint64 // total bits written
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBit appends a single bit (any nonzero b counts as 1).
func (w *Writer) WriteBit(b uint) {
	v := uint64(0)
	if b != 0 {
		v = 1
	}
	w.cur = w.cur<<1 | v
	w.n++
	w.bits++
	if w.n == 64 {
		w.flushWord()
	}
}

// WriteBool appends a single bit from a bool.
func (w *Writer) WriteBool(b bool) {
	if b {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
}

// WriteBits appends the low `width` bits of v, most significant first.
// width must be in [0, 64].
func (w *Writer) WriteBits(v uint64, width uint) {
	if width > 64 {
		// Invariant: widths are compile-time constants or coder-derived
		// values ≤ 64; encode-side only, never reached by stream content.
		panic(fmt.Sprintf("bitio: WriteBits width %d > 64", width)) // caller invariant, not input-driven
	}
	if width == 0 {
		return
	}
	if width < 64 {
		v &= (1 << width) - 1
	}
	// Split across the 64-bit accumulator boundary if needed.
	if w.n+width <= 64 {
		w.cur = w.cur<<width | v
		w.n += width
		w.bits += uint64(width)
		if w.n == 64 {
			w.flushWord()
		}
		return
	}
	hi := 64 - w.n
	lo := width - hi
	w.cur = w.cur<<hi | v>>lo
	w.n = 64
	w.bits += uint64(hi)
	w.flushWord()
	w.cur = v & ((1 << lo) - 1)
	w.n = lo
	w.bits += uint64(lo)
}

func (w *Writer) flushWord() {
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.cur)
	w.cur = 0
	w.n = 0
}

// BitsWritten reports the total number of bits written so far.
func (w *Writer) BitsWritten() uint64 { return w.bits }

// Bytes flushes any partial byte (zero-padded on the right) and returns the
// accumulated buffer. The Writer remains usable; subsequent writes continue
// appending after the flushed content only if the bit count was a multiple
// of 8, so callers normally call Bytes exactly once at the end.
func (w *Writer) Bytes() []byte {
	out := w.buf
	if w.n > 0 {
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], w.cur<<(64-w.n)) // left-align
		out = append(out, tmp[:(w.n+7)/8]...)
	}
	return out
}

// Reset discards all written data, retaining the underlying capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur = 0
	w.n = 0
	w.bits = 0
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf  []byte
	pos  int    // next byte index
	cur  uint64 // loaded bits, consumed from the MSB side of the low n bits
	n    uint   // bits available in cur
	read uint64 // total bits consumed
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// fill loads as many whole bytes as fit into the accumulator.
func (r *Reader) fill() {
	for r.n <= 56 && r.pos < len(r.buf) {
		r.cur = r.cur<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.n += 8
	}
}

// ReadBit reads one bit, returning 0 or 1.
func (r *Reader) ReadBit() (uint, error) {
	if r.n == 0 {
		r.fill()
		if r.n == 0 {
			return 0, ErrUnexpectedEOF
		}
	}
	r.n--
	r.read++
	return uint(r.cur>>r.n) & 1, nil
}

// ReadBool reads one bit as a bool.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadBit()
	return b == 1, err
}

// ReadBits reads `width` bits (MSB-first) into the low bits of the result.
// width must be in [0, 64].
func (r *Reader) ReadBits(width uint) (uint64, error) {
	if width > 64 {
		// Invariant: decoders request widths from compile-time constants or
		// validated code lengths (≤ huffman.MaxCodeLen = 58); a corrupt
		// stream can change *which* bits are read, never the width bound.
		panic(fmt.Sprintf("bitio: ReadBits width %d > 64", width)) // caller invariant, not input-driven
	}
	if width == 0 {
		return 0, nil
	}
	if r.n < width {
		r.fill()
	}
	if r.n >= width {
		r.n -= width
		r.read += uint64(width)
		v := r.cur >> r.n
		if width < 64 {
			v &= (1 << width) - 1
		}
		return v, nil
	}
	// Accumulator short (can only happen near EOF or width>56): read in two parts.
	have := r.n
	if have == 0 && r.pos >= len(r.buf) {
		return 0, ErrUnexpectedEOF
	}
	hi, err := r.ReadBits(have)
	if err != nil {
		return 0, err
	}
	rest := width - have
	lo, err := r.ReadBits(rest)
	if err != nil {
		return 0, err
	}
	return hi<<rest | lo, nil
}

// BitsRead reports the total number of bits consumed so far.
func (r *Reader) BitsRead() uint64 { return r.read }

// PeekBits returns up to `width` bits (MSB-first, right-aligned) without
// consuming them. got reports how many bits were actually available; when
// got < width the stream is near its end. width must be ≤ 56 so the
// accumulator can always hold a full peek.
func (r *Reader) PeekBits(width uint) (v uint64, got uint) {
	if width > 56 {
		// Invariant: the only peeking decoder is the Huffman LUT, whose
		// width is capped at lutMaxBits = 12; not reachable from input.
		panic(fmt.Sprintf("bitio: PeekBits width %d > 56", width)) // caller invariant, not input-driven
	}
	if r.n < width {
		r.fill()
	}
	got = width
	if r.n < width {
		got = r.n
	}
	if got == 0 {
		return 0, 0
	}
	v = r.cur >> (r.n - got)
	if got < 64 {
		v &= (1 << got) - 1
	}
	return v, got
}

// Skip consumes exactly `count` bits that a prior PeekBits reported
// available.
func (r *Reader) Skip(count uint) {
	if count > r.n {
		// Invariant: callers only Skip counts that the immediately preceding
		// PeekBits reported available (r.n can only grow in between).
		panic("bitio: Skip beyond peeked bits") // caller invariant, not input-driven
	}
	r.n -= count
	r.read += uint64(count)
}

// Align discards bits up to the next byte boundary.
func (r *Reader) Align() {
	rem := r.n % 8
	r.n -= rem
	r.read += uint64(rem)
}

// AppendUvarint appends x to dst using the standard LEB128-style base-128
// varint used throughout the container formats, and returns the extended
// slice.
func AppendUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x&0x7f)|0x80)
		x >>= 7
	}
	return append(dst, byte(x&0x7f))
}

// Uvarint decodes a base-128 varint from buf, returning the value and the
// number of bytes consumed. n == 0 signals truncated or invalid input.
func Uvarint(buf []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, b := range buf {
		if i == 10 {
			return 0, 0 // overflow
		}
		if b < 0x80 {
			if i == 9 && b > 1 {
				return 0, 0
			}
			return x | uint64(b)<<s, i + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0
}

// ZigZag maps a signed integer to an unsigned one with small absolute
// values mapping to small results: 0,-1,1,-2,2 → 0,1,2,3,4.
func ZigZag(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}
