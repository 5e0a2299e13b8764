// Package fpzip is a clean-room Go re-implementation of the FPZIP
// predictive floating-point coder (Lindstrom & Isenburg, TVCG 2006), one of
// the paper's point-wise-relative baselines.
//
// FPZIP's lossy mode is parameterized by a precision p: each float is
// mapped to an order-preserving integer and its low 64−p bits are
// discarded, after which the Lorenzo predictor runs losslessly in the
// truncated integer domain and the residuals are entropy coded with an
// adaptive range coder (bit-length symbols through an adaptive model,
// magnitude bits raw), matching the original's fast range coder design.
//
// Discarding mantissa bits yields a *relative* error bound: for the float64
// layout (1 sign + 11 exponent bits) the maximum point-wise relative error
// is 2^(12−p), so p = 12 + ceil(log2(1/b_r)) meets a relative bound b_r.
// This is the "accepts only precision as a parameter" behaviour the paper
// critiques in Section II: the achievable bounds are quantized to powers of
// two (the "piecewise features over error bounds" of FPZIP's ratio curve).
//
// The float32 layout (fpzip32.go) shares the coder, the header and the
// ordered-integer mapping; the two differ only in their layout constants.
// NaN decodes as NaN and ±Inf exactly at every precision a relative bound
// selects.
package fpzip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitio"
	"repro/internal/grid"
	"repro/internal/predictor"
	"repro/internal/rangecoder"
)

const maxRank = 4

var (
	// ErrCorrupt reports a malformed stream.
	ErrCorrupt = errors.New("fpzip: corrupt stream")
	// ErrBadPrecision reports an out-of-range precision parameter.
	ErrBadPrecision = errors.New("fpzip: precision must be in [2, 64]")
)

// layout is one float width of the stream format.
type layout struct {
	magic uint32
	width uint // bits per value
	// signExp counts the non-mantissa bits: p-bit truncation keeps p−signExp
	// mantissa bits, so its relative error is at most 2^(signExp−p).
	signExp int
	inf     uint64 // +Inf's bit pattern; any pattern above it, of either sign, is a NaN
	nan     uint64 // the quiet NaN every NaN is stored as
}

var float64Layout = layout{magic: 0x46505A31, width: 64, signExp: 12, inf: 0x7FF0000000000000, nan: 0x7FF8000000000000} // "FPZ1"

// precision returns the smallest precision whose guaranteed maximum
// relative error 2^(signExp−p) is ≤ relBound.
func (l *layout) precision(relBound float64) (int, error) {
	if !(relBound > 0) || relBound >= 1 {
		return 0, fmt.Errorf("fpzip: relative bound %v out of (0,1)", relBound)
	}
	return max(2, min(l.signExp+int(math.Ceil(math.Log2(1/relBound))), int(l.width))), nil
}

// maxRelError returns the guaranteed maximum relative error of precision p.
func (l *layout) maxRelError(p int) float64 {
	if p >= int(l.width) {
		return 0
	}
	return math.Exp2(float64(l.signExp - p))
}

// truncate maps the bit pattern u to its order-preserving integer (the
// non-sign bits of a negative value flipped, so integer order is float
// order) and keeps its top p bits, flooring. Every NaN maps as the quiet
// NaN, whose bucket no other value shares for p > signExp: a NaN payload
// below 2^(width−p) would otherwise floor into +Inf's bucket.
func (l *layout) truncate(u uint64, p int) int64 {
	sign := uint64(1) << (l.width - 1)
	if u&^sign > l.inf {
		u = l.nan
	}
	i := int64(u<<(64-l.width)) >> (64 - l.width)
	if i < 0 {
		i ^= int64(sign - 1)
	}
	return i >> (l.width - uint(p))
}

// restore inverts truncate for a decoded integer t, reporting false when
// t's bucket lies outside the layout's width. −Inf's bucket floors into
// the negative NaNs below it, which truncate never emits, so a negative
// NaN pattern decodes as −Inf.
func (l *layout) restore(t int64, p int) (uint64, bool) {
	sh := 64 - l.width
	v := t << (l.width - uint(p))
	if v<<sh>>sh != v {
		return 0, false
	}
	sign := uint64(1) << (l.width - 1)
	if v < 0 {
		v ^= int64(sign - 1)
	}
	u := uint64(v) << sh >> sh
	if u > l.inf|sign {
		u = l.inf | sign
	}
	return u, true
}

// encode writes a stream of layout l at precision p over the truncated
// integers tr: magic, p, dims and the payload length, then the payload.
// Each Lorenzo residual in the integer domain is coded as its bit length
// through an adaptive model plus its low bits raw: bit length 0 means
// residual 0, and the top bit of an l-bit value is implicit.
func (l *layout) encode(tr []int64, dims []int, p int) ([]byte, error) {
	if p < 2 || p > int(l.width) {
		return nil, ErrBadPrecision
	}
	field, err := predictor.NewField(tr, dims)
	if err != nil {
		return nil, err
	}
	enc := rangecoder.NewEncoder(len(tr) * int(l.width) / 64)
	model := rangecoder.NewAdaptiveModel(65)
	field.Walk(func(lin int, coord []int) {
		r := bitio.ZigZag(tr[lin] - field.Predict(lin, coord))
		n := bits.Len64(r)
		model.EncodeSymbol(enc, n)
		if n > 1 {
			enc.EncodeBits(r, uint(n-1))
		}
	})
	payload := enc.Finish()

	out := make([]byte, 0, len(payload)+64)
	out = binary.BigEndian.AppendUint32(out, l.magic)
	out = append(out, byte(p))
	out = grid.AppendDims(out, dims)
	out = bitio.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...), nil
}

// decode parses a stream of layout l and returns its precision, dims and
// truncated integers.
func (l *layout) decode(buf []byte) (int, []int, []int64, error) {
	if len(buf) < 5 || binary.BigEndian.Uint32(buf) != l.magic {
		return 0, nil, nil, ErrCorrupt
	}
	p := int(buf[4])
	if p < 2 || p > int(l.width) {
		return 0, nil, nil, ErrCorrupt
	}
	dims, off, err := grid.ParseDims(buf[5:], maxRank)
	if err != nil {
		return 0, nil, nil, ErrCorrupt
	}
	off += 5
	plen, k := bitio.Uvarint(buf[off:])
	if k == 0 || plen > uint64(len(buf)-off-k) {
		return 0, nil, nil, ErrCorrupt
	}
	off += k
	dec := rangecoder.NewDecoder(buf[off : off+int(plen)])
	model := rangecoder.NewAdaptiveModel(65)

	tr := make([]int64, grid.Size(dims))
	field, err := predictor.NewField(tr, dims)
	if err != nil {
		return 0, nil, nil, err
	}
	var werr error
	field.Walk(func(lin int, coord []int) {
		if werr != nil {
			return
		}
		n, err := model.DecodeSymbol(dec)
		if err != nil {
			werr = err
			return
		}
		var z uint64
		switch {
		case n == 1:
			z = 1
		case n > 1:
			z = 1<<uint(n-1) | dec.DecodeBits(uint(n-1))
		}
		tr[lin] = field.Predict(lin, coord) + bitio.UnZigZag(z)
	})
	if werr == nil && dec.Overrun() {
		werr = ErrCorrupt
	}
	return p, dims, tr, werr
}

// PrecisionForRelBound returns the smallest precision p whose guaranteed
// maximum relative error 2^(12−p) is ≤ relBound.
func PrecisionForRelBound(relBound float64) (int, error) {
	return float64Layout.precision(relBound)
}

// MaxRelError returns the guaranteed maximum point-wise relative error for
// precision p (normal values; denormals flush toward zero).
func MaxRelError(p int) float64 { return float64Layout.maxRelError(p) }

// Compress encodes data with the given precision p in [2, 64]. p = 64 is
// lossless for non-NaN input.
func Compress(data []float64, dims []int, p int) ([]byte, error) {
	tr := make([]int64, len(data))
	for i, v := range data {
		tr[i] = float64Layout.truncate(math.Float64bits(v), p)
	}
	return float64Layout.encode(tr, dims, p)
}

// Decompress decodes a stream produced by Compress.
func Decompress(buf []byte) ([]float64, []int, error) {
	p, dims, tr, err := float64Layout.decode(buf)
	if err != nil {
		return nil, nil, err
	}
	out := make([]float64, len(tr))
	for i, t := range tr {
		u, _ := float64Layout.restore(t, p) // every int64 fits 64 bits
		out[i] = math.Float64frombits(u)
	}
	return out, dims, nil
}
