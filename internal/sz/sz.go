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
	if len(dims) > maxRank {
		return nil, fmt.Errorf("sz: rank %d unsupported", len(dims))
	}
	if !(bound > 0) || math.IsInf(bound, 0) || math.IsNaN(bound) {
		return nil, ErrBadBound
	}
	opt := opts.withDefaults()
	if opt.Intervals == IntervalsAuto {
		opt.Intervals = estimateIntervals(data, dims, bound)
	}

	n := len(data)
	recon := make([]float64, n)
	field, err := predictor.NewField(recon, dims)
	if err != nil {
		return nil, err
	}
	q := quant.New(bound, opt.Intervals)
	codes := make([]int, n)
	raw := newRawEncoder(bound)

	field.Walk(func(lin int, coord []int) {
		v := data[lin]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			codes[lin] = quant.Unpredictable
			recon[lin] = v
			raw.add(v)
			return
		}
		pred := field.Predict(lin, coord)
		code, rec, ok := q.Quantize(v, pred)
		if !ok {
			codes[lin] = quant.Unpredictable
			tv := raw.add(v)
			recon[lin] = tv
			return
		}
		codes[lin] = code
		recon[lin] = rec
	})

	payload, err := encodePayload(codes, q.Alphabet(), raw)
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
	if len(dims) > maxRank {
		return nil, fmt.Errorf("sz: rank %d unsupported", len(dims))
	}
	if !(relBound > 0) || relBound >= 1 || math.IsNaN(relBound) {
		return nil, ErrBadBound
	}
	opt := opts.withDefaults()
	if opt.Intervals == IntervalsAuto {
		// Block-wise bounds vary; fall back to the full capacity.
		opt.Intervals = 65536
	}
	n := len(data)

	// Pass 1: per-block bound exponents.
	blockExps, pointBin, err := blockBounds(data, dims, relBound, opt.BlockSide)
	if err != nil {
		return nil, err
	}

	recon := make([]float64, n)
	field, err := predictor.NewField(recon, dims)
	if err != nil {
		return nil, err
	}
	codes := make([]int, n)
	raw := newRawEncoder(0) // per-point tolerance set on each add
	radius := opt.Intervals / 2

	field.Walk(func(lin int, coord []int) {
		v := data[lin]
		bin := pointBin[lin]
		if math.IsNaN(v) || math.IsInf(v, 0) || bin <= 0 {
			codes[lin] = quant.Unpredictable
			recon[lin] = v
			raw.addTol(v, 0)
			return
		}
		bound := bin / 2
		pred := field.Predict(lin, coord)
		diff := v - pred
		if math.IsNaN(diff) || math.IsInf(diff, 0) {
			codes[lin] = quant.Unpredictable
			recon[lin] = raw.addTol(v, bound)
			return
		}
		var idx int
		if diff >= 0 {
			idx = int(diff/bin + 0.5)
		} else {
			idx = -int(-diff/bin + 0.5)
		}
		if idx > radius-1 || idx < -(radius-1) {
			codes[lin] = quant.Unpredictable
			recon[lin] = raw.addTol(v, bound)
			return
		}
		rec := pred + float64(idx)*bin
		if d := rec - v; d > bound || d < -bound {
			codes[lin] = quant.Unpredictable
			recon[lin] = raw.addTol(v, bound)
			return
		}
		codes[lin] = idx + radius + 1
		recon[lin] = rec
	})

	payload, err := encodePayload(codes, 2*radius+1, raw)
	if err != nil {
		return nil, err
	}
	return assemble(modePWR, dims, relBound, opt, payload, blockExps)
}

// blockBounds computes the per-block bound exponent e (so that the block's
// absolute bound 2^e <= relBound × min nonzero |v| — rounding down to a
// power of two keeps the bound valid and serializes compactly) and expands
// it to a per-point quantization bin width (2×bound). The sentinel
// zeroBlockExp marks blocks with no finite nonzero value, which are stored
// verbatim.
func blockBounds(data []float64, dims []int, relBound float64, side int) ([]int, []float64, error) {
	strides := grid.Strides(dims)
	var exps []int
	pointBin := make([]float64, len(data))
	err := grid.Blocks(dims, side, func(b grid.Block) error {
		minAbs := math.Inf(1)
		hasFinite := false
		b.ForEach(strides, func(lin int) {
			v := math.Abs(data[lin])
			if v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) {
				hasFinite = true
				if v < minAbs {
					minAbs = v
				}
			}
		})
		e := zeroBlockExp
		bin := 0.0
		if hasFinite {
			fe := int(math.Floor(math.Log2(relBound * minAbs)))
			if fe < minBlockExp {
				fe = minBlockExp
			}
			if fe > 60 {
				fe = 60
			}
			bin = math.Exp2(float64(fe)) * 2 // bin = 2*bound'
			e = fe
		}
		b.ForEach(strides, func(lin int) { pointBin[lin] = bin })
		exps = append(exps, e)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return exps, pointBin, nil
}

// rawEncoder accumulates verbatim ("unpredictable") values with
// error-bounded truncation, exactly as SZ's binary-representation analysis
// stores outliers.
type rawEncoder struct {
	tol   float64
	buf   []byte
	count int
}

func newRawEncoder(tol float64) *rawEncoder { return &rawEncoder{tol: tol} }

// add stores v truncated to the encoder-wide tolerance, returning the
// truncated value actually stored.
func (r *rawEncoder) add(v float64) float64 { return r.addTol(v, r.tol) }

// addTol stores v truncated to the given tolerance (0 = exact).
func (r *rawEncoder) addTol(v, tol float64) float64 {
	tv, nb := floatbits.TruncateToError(v, tol)
	bits := math.Float64bits(tv)
	// Drop trailing zero bytes; nb from TruncateToError already reflects
	// this but recompute defensively for the tol==0 path.
	nb = 8
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
// stage. blockExps is non-nil only for PWR mode.
func assemble(mode int, dims []int, bound float64, opt Options, payload []byte, blockExps []int) ([]byte, error) {
	head := make([]byte, 0, 64)
	head = binary.BigEndian.AppendUint32(head, magic)
	head = append(head, byte(mode))
	head = bitio.AppendUvarint(head, uint64(len(dims)))
	for _, d := range dims {
		head = bitio.AppendUvarint(head, uint64(d))
	}
	head = binary.BigEndian.AppendUint64(head, math.Float64bits(bound))
	head = bitio.AppendUvarint(head, uint64(opt.Intervals))
	head = bitio.AppendUvarint(head, uint64(opt.BlockSide))

	body := payload
	if blockExps != nil {
		// Serialize block exponent list ahead of the payload.
		bb := bitio.AppendUvarint(nil, uint64(len(blockExps)))
		bb = append(bb, encodeBlockExps(blockExps)...)
		body = append(bb, payload...)
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

// Decompress decodes any stream produced by CompressAbs or CompressPWR,
// returning the reconstructed data and its dimensions.
func Decompress(buf []byte) ([]float64, []int, error) {
	mode, dims, bound, intervals, blockSide, body, err := parseHeader(buf)
	if err != nil {
		return nil, nil, err
	}
	n := grid.Size(dims)
	switch mode {
	case modeAbs:
		return decompressAbs(dims, n, bound, intervals, body)
	case modePWR:
		return decompressPWR(dims, n, bound, intervals, blockSide, body)
	default:
		return nil, nil, ErrCorrupt
	}
}

func parseHeader(buf []byte) (mode int, dims []int, bound float64, intervals, blockSide int, body []byte, err error) {
	if len(buf) < 5 || binary.BigEndian.Uint32(buf) != magic {
		err = ErrCorrupt
		return
	}
	mode = int(buf[4])
	off := 5
	rank, k := bitio.Uvarint(buf[off:])
	if k == 0 || rank == 0 || rank > maxRank {
		err = ErrCorrupt
		return
	}
	off += k
	dims = make([]int, rank)
	for i := range dims {
		d, k := bitio.Uvarint(buf[off:])
		if k == 0 || d == 0 || d > 1<<40 {
			err = ErrCorrupt
			return
		}
		dims[i] = int(d)
		off += k
	}
	if err2 := grid.Validate(dims, -1); err2 != nil {
		err = ErrCorrupt
		return
	}
	if off+8 > len(buf) {
		err = ErrCorrupt
		return
	}
	bound = math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	iv, k := bitio.Uvarint(buf[off:])
	if k == 0 || iv < 2 || iv > 1<<24 {
		err = ErrCorrupt
		return
	}
	intervals = int(iv)
	off += k
	bs, k := bitio.Uvarint(buf[off:])
	if k == 0 || bs == 0 || bs > 1<<20 {
		err = ErrCorrupt
		return
	}
	blockSide = int(bs)
	off += k
	if off >= len(buf) {
		err = ErrCorrupt
		return
	}
	flags := buf[off]
	off++
	blen, k := bitio.Uvarint(buf[off:])
	if k == 0 || blen > uint64(len(buf)-off-k) {
		err = ErrCorrupt
		return
	}
	off += k
	body = buf[off : off+int(blen)]
	if flags&flagFlate != 0 {
		dec, err2 := deflate.Decompress(body, 1<<34)
		if err2 != nil {
			err = fmt.Errorf("%w: %v", ErrCorrupt, err2)
			return
		}
		body = dec
	}
	if !(bound > 0) || math.IsNaN(bound) || math.IsInf(bound, 0) {
		err = ErrCorrupt
	}
	return
}

func decompressAbs(dims []int, n int, bound float64, intervals int, body []byte) ([]float64, []int, error) {
	codes, raw, err := decodePayload(body)
	if err != nil {
		return nil, nil, err
	}
	if len(codes) != n {
		return nil, nil, ErrCorrupt
	}
	recon := make([]float64, n)
	field, err := predictor.NewField(recon, dims)
	if err != nil {
		return nil, nil, err
	}
	q := quant.New(bound, intervals)
	alphabet := q.Alphabet()
	var werr error
	field.Walk(func(lin int, coord []int) {
		if werr != nil {
			return
		}
		code := codes[lin]
		if code == quant.Unpredictable {
			v, err := raw.next()
			if err != nil {
				werr = err
				return
			}
			recon[lin] = v
			return
		}
		if code < 0 || code >= alphabet {
			werr = ErrCorrupt
			return
		}
		recon[lin] = q.Reconstruct(code, field.Predict(lin, coord))
	})
	if werr != nil {
		return nil, nil, werr
	}
	return recon, dims, nil
}

func decompressPWR(dims []int, n int, relBound float64, intervals, blockSide int, body []byte) ([]float64, []int, error) {
	nblocks, k := bitio.Uvarint(body)
	if k == 0 || nblocks > uint64(n) {
		return nil, nil, ErrCorrupt
	}
	off := k
	exps, used, err := decodeBlockExps(body[off:], int(nblocks))
	if err != nil {
		return nil, nil, err
	}
	off += used
	codes, raw, err := decodePayload(body[off:])
	if err != nil {
		return nil, nil, err
	}
	if len(codes) != n {
		return nil, nil, ErrCorrupt
	}
	// Expand per-point bins.
	strides := grid.Strides(dims)
	pointBin := make([]float64, n)
	bi := 0
	err = grid.Blocks(dims, blockSide, func(b grid.Block) error {
		if bi >= len(exps) {
			return ErrCorrupt
		}
		bin := 0.0
		if e := exps[bi]; e != zeroBlockExp {
			bin = math.Exp2(float64(e)) * 2
		}
		b.ForEach(strides, func(lin int) { pointBin[lin] = bin })
		bi++
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if bi != len(exps) {
		return nil, nil, ErrCorrupt
	}

	recon := make([]float64, n)
	field, err := predictor.NewField(recon, dims)
	if err != nil {
		return nil, nil, err
	}
	radius := intervals / 2
	var werr error
	field.Walk(func(lin int, coord []int) {
		if werr != nil {
			return
		}
		code := codes[lin]
		if code == quant.Unpredictable {
			v, err := raw.next()
			if err != nil {
				werr = err
				return
			}
			recon[lin] = v
			return
		}
		if code < 1 || code > 2*radius {
			werr = ErrCorrupt
			return
		}
		recon[lin] = field.Predict(lin, coord) + float64(code-radius-1)*pointBin[lin]
	})
	if werr != nil {
		return nil, nil, werr
	}
	return recon, dims, nil
}

// Block exponents are small signed integers in [-1060, 60] plus an all-zero
// sentinel; serialize as zigzag uvarints.
const zeroBlockExp = 1 << 20

func encodeBlockExps(exps []int) []byte {
	out := make([]byte, 0, len(exps)*2)
	for _, e := range exps {
		out = bitio.AppendUvarint(out, bitio.ZigZag(int64(e)))
	}
	return out
}

func decodeBlockExps(data []byte, n int) ([]int, int, error) {
	exps := make([]int, n)
	off := 0
	for i := 0; i < n; i++ {
		u, k := bitio.Uvarint(data[off:])
		if k == 0 {
			return nil, 0, ErrCorrupt
		}
		off += k
		v := bitio.UnZigZag(u)
		if v != zeroBlockExp && (v < minBlockExp || v > 62) {
			return nil, 0, ErrCorrupt
		}
		exps[i] = int(v)
	}
	return exps, off, nil
}
