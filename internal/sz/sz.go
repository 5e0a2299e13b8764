// Package sz is a clean-room Go re-implementation of the SZ 1.4-style
// error-bounded lossy compressor (Tao et al., IPDPS'17; Di & Cappello,
// IPDPS'16), the prediction-based absolute-error-bound backend used by the
// paper's transformation scheme.
//
// Compression runs in the paper's three stages:
//
//  1. Lorenzo prediction over reconstructed values + linear-scaling
//     quantization of the prediction error into integer codes (code 0 is
//     reserved for unpredictable points, which are stored verbatim with
//     error-bounded mantissa truncation).
//  2. A canonical Huffman encoder over the quantization codes.
//  3. An optional lossless stage (DEFLATE, standing in for SZ's GZIP pass),
//     kept only when it actually shrinks the stream.
//
// The package also implements the block-wise point-wise-relative mode
// (SZ_PWR, Di/Tao/Cappello DRBSD-2'17) that the paper uses as a baseline:
// the field is split into blocks and each block is compressed with an
// absolute bound derived from the minimum nonzero magnitude in the block.
package sz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/bitio"
	"repro/internal/deflate"
	"repro/internal/floatbits"
	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/predictor"
	"repro/internal/quant"
)

// Stream format constants.
const (
	magic       = 0x535A4731 // "SZG1"
	modeAbs     = 1
	modePWR     = 2
	flagFlate   = 1 << 0
	maxRank     = 4
	minBlockExp = -1060
)

// Lossless selects the stage-III lossless pass behaviour.
type Lossless int

const (
	// LosslessAuto applies DEFLATE and keeps it only if it shrinks the
	// stream (the default, mirroring SZ's optional GZIP stage).
	LosslessAuto Lossless = iota
	// LosslessOff disables the stage entirely.
	LosslessOff
	// LosslessOn always stores the DEFLATE-compressed payload.
	LosslessOn
)

// IntervalsAuto selects the quantization capacity by sampling the data
// (SZ's "optimize interval number" step): the smallest power of two whose
// code range covers ~99% of sampled prediction residuals.
const IntervalsAuto = -1

// Options tunes the compressor. The zero value selects SZ defaults.
type Options struct {
	// Intervals is the linear-scaling quantization interval count
	// (default 65536, the SZ default capacity; IntervalsAuto samples the
	// data to pick a smaller capacity when possible, shrinking the
	// Huffman alphabet).
	Intervals int
	// BlockSide is the per-dimension block edge for the PWR mode
	// (default 8).
	BlockSide int
	// Lossless controls the stage-III DEFLATE pass.
	Lossless Lossless
}

func (o *Options) withDefaults() Options {
	opt := Options{Intervals: 65536, BlockSide: 8, Lossless: LosslessAuto}
	if o != nil {
		if o.Intervals >= 2 || o.Intervals == IntervalsAuto {
			opt.Intervals = o.Intervals
		}
		if o.BlockSide > 0 {
			opt.BlockSide = o.BlockSide
		}
		opt.Lossless = o.Lossless
	}
	return opt
}

// estimateIntervals samples prediction residuals (predicting from original
// neighbors, a good proxy for the reconstruction-based predictor) and
// returns the smallest power-of-two capacity covering the 99th percentile.
func estimateIntervals(data []float64, dims []int, bound float64) int {
	const (
		maxSamples   = 4096
		minIntervals = 32
		maxIntervals = 65536
	)
	n := len(data)
	stride := n / maxSamples
	if stride < 1 {
		stride = 1
	}
	field, err := predictor.NewField(data, dims)
	if err != nil {
		return maxIntervals
	}
	var mags []float64
	field.Walk(func(lin int, coord []int) {
		if lin%stride != 0 {
			return
		}
		v := data[lin]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		diff := v - field.Predict(lin, coord)
		if math.IsNaN(diff) || math.IsInf(diff, 0) {
			return
		}
		mags = append(mags, math.Abs(diff)/(2*bound))
	})
	if len(mags) == 0 {
		return minIntervals
	}
	sort.Float64s(mags)
	p99 := mags[len(mags)*99/100]
	need := 2 * (int(p99) + 2)
	iv := minIntervals
	for iv < need && iv < maxIntervals {
		iv *= 2
	}
	return iv
}

var (
	// ErrCorrupt reports a malformed or truncated compressed stream.
	ErrCorrupt = errors.New("sz: corrupt stream")
	// ErrBadBound reports a nonpositive error bound.
	ErrBadBound = errors.New("sz: error bound must be positive")
)

// CompressAbs compresses data (row-major, shape dims) under the absolute
// error bound `bound`: every decompressed value differs from its original
// by at most bound. NaN and infinite values are stored verbatim.
func CompressAbs(data []float64, dims []int, bound float64, opts *Options) ([]byte, error) {
	if err := grid.Validate(dims, len(data)); err != nil {
		return nil, err
	}
	if !(bound > 0) || math.IsInf(bound, 0) || math.IsNaN(bound) {
		return nil, ErrBadBound
	}
	opt := opts.withDefaults()
	if opt.Intervals == IntervalsAuto {
		opt.Intervals = estimateIntervals(data, dims, bound)
	}
	payload, err := quantizeField(data, dims, opt.Intervals, bound, nil)
	if err != nil {
		return nil, err
	}
	return assemble(modeAbs, dims, bound, opt, payload, nil)
}

// CompressPWR compresses data under a point-wise relative error bound using
// the *block-wise* baseline strategy (SZ_PWR): per block of side
// Options.BlockSide, the absolute bound is relBound × min|v| over nonzero
// values in the block, rounded down to a power of two so it serializes as
// one byte per block. Zero values inside nonzero blocks may be perturbed
// (the behaviour the paper marks with * in Table IV).
func CompressPWR(data []float64, dims []int, relBound float64, opts *Options) ([]byte, error) {
	if err := grid.Validate(dims, len(data)); err != nil {
		return nil, err
	}
	if !(relBound > 0) || relBound >= 1 || math.IsNaN(relBound) {
		return nil, ErrBadBound
	}
	opt := opts.withDefaults()
	if opt.Intervals == IntervalsAuto {
		// Block-wise bounds vary; fall back to the full capacity.
		opt.Intervals = 65536
	}
	exps, err := blockExps(data, dims, relBound, opt.BlockSide)
	if err != nil {
		return nil, err
	}
	bounds, err := pointBounds(exps, dims, opt.BlockSide)
	if err != nil {
		return nil, err
	}
	payload, err := quantizeField(data, dims, opt.Intervals, 0, bounds)
	if err != nil {
		return nil, err
	}
	return assemble(modePWR, dims, relBound, opt, payload, exps)
}

// quantizeField is stage I for both modes: it walks the field in Lorenzo
// order, predicts each point from the reconstructed neighbours and
// quantizes the residual with one quantizer of the given bound, or, when
// bounds is non-nil (PWR), with one made from the point's own bound. A
// point the quantizer refuses (NaN, ±Inf, a zero bound, a residual out of
// range or pushed past the bound by rounding) is stored verbatim,
// truncated to its bound. It returns the encoded payload.
func quantizeField(data []float64, dims []int, intervals int, bound float64, bounds []float64) ([]byte, error) {
	recon := make([]float64, len(data))
	field, err := predictor.NewField(recon, dims)
	if err != nil {
		return nil, err
	}
	fixed := *quant.New(bound, intervals)
	codes := make([]int, len(data))
	var raw rawEncoder
	field.Walk(func(lin int, coord []int) {
		q := fixed // a per-point copy: reassigning fixed would move it to the heap
		if bounds != nil {
			q = *quant.New(bounds[lin], intervals)
		}
		v := data[lin]
		code, rec, ok := q.Quantize(v, field.Predict(lin, coord))
		if !ok {
			code, rec = quant.Unpredictable, raw.add(v, q.Bound())
		}
		codes[lin], recon[lin] = code, rec
	})
	return encodePayload(codes, fixed.Alphabet(), &raw)
}

// reconstructField inverts quantizeField over decoded codes.
func reconstructField(codes []int, raw *rawDecoder, dims []int, intervals int, bound float64, bounds []float64) ([]float64, error) {
	recon := make([]float64, len(codes))
	field, err := predictor.NewField(recon, dims)
	if err != nil {
		return nil, err
	}
	fixed := *quant.New(bound, intervals)
	alphabet := fixed.Alphabet()
	var werr error
	field.Walk(func(lin int, coord []int) {
		if werr != nil {
			return
		}
		switch code := codes[lin]; {
		case code == quant.Unpredictable:
			recon[lin], werr = raw.next()
		case code < 0 || code >= alphabet:
			werr = ErrCorrupt
		case bounds == nil:
			recon[lin] = fixed.Reconstruct(code, field.Predict(lin, coord))
		default:
			recon[lin] = quant.New(bounds[lin], intervals).Reconstruct(code, field.Predict(lin, coord))
		}
	})
	return recon, werr
}

// blockExps computes each block's bound exponent e, so that the block's
// absolute bound 2^e <= relBound × min nonzero |v| (rounding down to a
// power of two keeps the bound valid and serializes compactly). The
// sentinel zeroBlockExp marks blocks with no finite nonzero value, which
// are stored verbatim.
func blockExps(data []float64, dims []int, relBound float64, side int) ([]int, error) {
	strides := grid.Strides(dims)
	var exps []int
	err := grid.Blocks(dims, side, func(b grid.Block) error {
		minAbs := math.Inf(1)
		b.ForEach(strides, func(lin int) {
			if v := math.Abs(data[lin]); v > 0 && v < minAbs {
				minAbs = v
			}
		})
		e := zeroBlockExp
		if !math.IsInf(minAbs, 0) {
			e = min(max(int(math.Floor(math.Log2(relBound*minAbs))), minBlockExp), 60)
		}
		exps = append(exps, e)
		return nil
	})
	return exps, err
}

// pointBounds expands per-block exponents to each point's absolute bound
// (0 in a zero block, whose points the quantizer then refuses).
func pointBounds(exps []int, dims []int, side int) ([]float64, error) {
	strides := grid.Strides(dims)
	bounds := make([]float64, grid.Size(dims))
	bi := 0
	err := grid.Blocks(dims, side, func(b grid.Block) error {
		if bi >= len(exps) {
			return ErrCorrupt
		}
		bound := 0.0
		if e := exps[bi]; e != zeroBlockExp {
			bound = math.Exp2(float64(e))
		}
		b.ForEach(strides, func(lin int) { bounds[lin] = bound })
		bi++
		return nil
	})
	if err == nil && bi != len(exps) {
		err = ErrCorrupt
	}
	return bounds, err
}

// rawEncoder accumulates verbatim ("unpredictable") values with
// error-bounded truncation, exactly as SZ's binary-representation analysis
// stores outliers.
type rawEncoder struct {
	buf   []byte
	count int
}

// add stores v truncated to the given tolerance (0 = exact), returning the
// truncated value actually stored.
func (r *rawEncoder) add(v, tol float64) float64 {
	tv, _ := floatbits.TruncateToError(v, tol)
	bits := math.Float64bits(tv)
	// Drop trailing zero bytes (TruncateToError keeps at least two).
	nb := 8
	for nb > 0 && bits&0xff == 0 {
		bits >>= 8
		nb--
	}
	r.buf = append(r.buf, byte(nb))
	full := math.Float64bits(tv)
	for i := 0; i < nb; i++ {
		r.buf = append(r.buf, byte(full>>(56-8*i)))
	}
	r.count++
	return tv
}

// rawDecoder reads back the verbatim stream.
type rawDecoder struct {
	buf []byte
	pos int
}

func (r *rawDecoder) next() (float64, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrCorrupt
	}
	nb := int(r.buf[r.pos])
	r.pos++
	if nb > 8 || r.pos+nb > len(r.buf) {
		return 0, ErrCorrupt
	}
	var bits uint64
	for i := 0; i < nb; i++ {
		bits |= uint64(r.buf[r.pos+i]) << (56 - 8*i)
	}
	r.pos += nb
	return math.Float64frombits(bits), nil
}

// encodePayload serializes the Huffman-coded quantization codes followed by
// the raw-value stream.
func encodePayload(codes []int, alphabet int, raw *rawEncoder) ([]byte, error) {
	hbuf, err := huffman.EncodeAll(codes, alphabet)
	if err != nil {
		return nil, err
	}
	out := bitio.AppendUvarint(nil, uint64(len(hbuf)))
	out = append(out, hbuf...)
	out = bitio.AppendUvarint(out, uint64(raw.count))
	out = bitio.AppendUvarint(out, uint64(len(raw.buf)))
	out = append(out, raw.buf...)
	return out, nil
}

func decodePayload(payload []byte) (codes []int, raw *rawDecoder, err error) {
	hlen, k := bitio.Uvarint(payload)
	if k == 0 || hlen > uint64(len(payload)-k) {
		return nil, nil, ErrCorrupt
	}
	off := k
	codes, used, err := huffman.DecodeAll(payload[off : off+int(hlen)])
	if err != nil {
		return nil, nil, err
	}
	if used != int(hlen) {
		return nil, nil, ErrCorrupt
	}
	off += int(hlen)
	_, k = bitio.Uvarint(payload[off:])
	if k == 0 {
		return nil, nil, ErrCorrupt
	}
	off += k
	blen, k := bitio.Uvarint(payload[off:])
	if k == 0 || blen > uint64(len(payload)-off-k) {
		return nil, nil, ErrCorrupt
	}
	off += k
	return codes, &rawDecoder{buf: payload[off : off+int(blen)]}, nil
}

// assemble builds the final self-describing stream and applies the lossless
// stage. exps is non-nil only for PWR mode.
func assemble(mode int, dims []int, bound float64, opt Options, payload []byte, exps []int) ([]byte, error) {
	head := make([]byte, 0, 64)
	head = binary.BigEndian.AppendUint32(head, magic)
	head = append(head, byte(mode))
	head = grid.AppendDims(head, dims)
	head = binary.BigEndian.AppendUint64(head, math.Float64bits(bound))
	head = bitio.AppendUvarint(head, uint64(opt.Intervals))
	head = bitio.AppendUvarint(head, uint64(opt.BlockSide))

	body := payload
	if exps != nil {
		// The block exponent list goes ahead of the payload.
		body = append(appendBlockExps(nil, exps), payload...)
	}

	flags := byte(0)
	switch opt.Lossless {
	case LosslessOff:
	default:
		z, err := deflate.Compress(body)
		if err != nil {
			return nil, err
		}
		if opt.Lossless == LosslessOn || len(z) < len(body)*97/100 {
			body = z
			flags |= flagFlate
		}
	}
	out := append(head, flags)
	out = bitio.AppendUvarint(out, uint64(len(body)))
	return append(out, body...), nil
}

// header holds a stream's fixed fields.
type header struct {
	mode      int
	dims      []int
	bound     float64 // absolute (modeAbs) or point-wise relative (modePWR)
	intervals int
	blockSide int
}

// Decompress decodes any stream produced by CompressAbs or CompressPWR,
// returning the reconstructed data and its dimensions.
func Decompress(buf []byte) ([]float64, []int, error) {
	h, body, err := parseHeader(buf)
	if err != nil {
		return nil, nil, err
	}
	n := grid.Size(h.dims)
	var exps []int
	if h.mode == modePWR {
		if exps, body, err = decodeBlockExps(body, n); err != nil {
			return nil, nil, err
		}
	}
	codes, raw, err := decodePayload(body)
	if err != nil {
		return nil, nil, err
	}
	if len(codes) != n {
		return nil, nil, ErrCorrupt
	}
	var bounds []float64
	if h.mode == modePWR {
		if bounds, err = pointBounds(exps, h.dims, h.blockSide); err != nil {
			return nil, nil, err
		}
	}
	recon, err := reconstructField(codes, raw, h.dims, h.intervals, h.bound, bounds)
	if err != nil {
		return nil, nil, err
	}
	return recon, h.dims, nil
}

// parseHeader reads the fixed fields and returns them with the body,
// inflated when the lossless stage was kept.
func parseHeader(buf []byte) (h header, body []byte, err error) {
	if len(buf) < 5 || binary.BigEndian.Uint32(buf) != magic {
		return h, nil, ErrCorrupt
	}
	h.mode = int(buf[4])
	if h.mode != modeAbs && h.mode != modePWR {
		return h, nil, ErrCorrupt
	}
	dims, off, err := grid.ParseDims(buf[5:], maxRank)
	if err != nil {
		return h, nil, ErrCorrupt
	}
	h.dims = dims
	off += 5
	if off+8 > len(buf) {
		return h, nil, ErrCorrupt
	}
	h.bound = math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	if !(h.bound > 0) || math.IsNaN(h.bound) || math.IsInf(h.bound, 0) {
		return h, nil, ErrCorrupt
	}
	iv, k := bitio.Uvarint(buf[off:])
	if k == 0 || iv < 2 || iv > 1<<24 {
		return h, nil, ErrCorrupt
	}
	h.intervals = int(iv)
	off += k
	bs, k := bitio.Uvarint(buf[off:])
	if k == 0 || bs == 0 || bs > 1<<20 {
		return h, nil, ErrCorrupt
	}
	h.blockSide = int(bs)
	off += k
	if off >= len(buf) {
		return h, nil, ErrCorrupt
	}
	flags := buf[off]
	off++
	blen, k := bitio.Uvarint(buf[off:])
	if k == 0 || blen > uint64(len(buf)-off-k) {
		return h, nil, ErrCorrupt
	}
	off += k
	body = buf[off : off+int(blen)]
	if flags&flagFlate != 0 {
		if body, err = deflate.Decompress(body, 1<<34); err != nil {
			return h, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return h, body, nil
}

// Block exponents are small signed integers in [-1060, 60] plus an all-zero
// sentinel; serialize as a count and zigzag uvarints.
const zeroBlockExp = 1 << 20

func appendBlockExps(dst []byte, exps []int) []byte {
	dst = bitio.AppendUvarint(dst, uint64(len(exps)))
	for _, e := range exps {
		dst = bitio.AppendUvarint(dst, bitio.ZigZag(int64(e)))
	}
	return dst
}

// decodeBlockExps reads the list appendBlockExps wrote for a field of n
// points and returns it with the bytes that follow.
func decodeBlockExps(body []byte, n int) ([]int, []byte, error) {
	count, off := bitio.Uvarint(body)
	// Each exponent takes at least one byte, so a count past the bytes
	// left is refused before it sizes the list.
	if off == 0 || count > uint64(n) || count > uint64(len(body)-off) {
		return nil, nil, ErrCorrupt
	}
	exps := make([]int, count)
	for i := range exps {
		u, k := bitio.Uvarint(body[off:])
		if k == 0 {
			return nil, nil, ErrCorrupt
		}
		off += k
		v := bitio.UnZigZag(u)
		if v != zeroBlockExp && (v < minBlockExp || v > 62) {
			return nil, nil, ErrCorrupt
		}
		exps[i] = int(v)
	}
	return exps, body[off:], nil
}
