// Package repro is a Go reproduction of "An Efficient Transformation Scheme
// for Lossy Data Compression with Point-wise Relative Error Bound" (Liang,
// Di, Tao, Chen, Cappello — IEEE CLUSTER 2018).
//
// It provides error-bounded lossy compression of floating-point scientific
// data under either an absolute error bound or a point-wise relative error
// bound. The headline algorithms are SZT and ZFPT: the paper's logarithmic
// transformation scheme layered over re-implementations of the SZ
// (prediction-based) and ZFP (transform-based) absolute-error compressors.
// The four baselines the paper evaluates against — SZ's block-wise PWR
// mode, ZFP's precision mode, FPZIP and ISABELA — are implemented too, so
// every comparison in the paper's evaluation can be regenerated.
//
// Quick start:
//
//	buf, err := repro.Compress(data, []int{n}, 1e-3, repro.SZT, nil)
//	...
//	dec, dims, err := repro.Decompress(buf)
//
// Streams are self-describing: Decompress dispatches on the algorithm
// recorded in the container.
package repro

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/core"
	"repro/internal/fpzip"
	"repro/internal/grid"
	"repro/internal/isabela"
	"repro/internal/sz"
	"repro/internal/zfp"
)

// Algorithm selects a compressor.
type Algorithm byte

const (
	// SZT is the paper's primary solution: logarithmic transform + SZ.
	SZT Algorithm = iota + 1
	// ZFPT is the transform scheme over ZFP's fixed-accuracy mode.
	ZFPT
	// SZABS is plain SZ under an absolute error bound.
	SZABS
	// SZPWR is the block-wise point-wise-relative SZ baseline.
	SZPWR
	// ZFPACC is plain ZFP fixed-accuracy mode (absolute bound).
	ZFPACC
	// ZFPP is ZFP's fixed-precision mode (approximate relative control).
	ZFPP
	// FPZIP is the predictive coder with precision-derived relative bounds.
	FPZIP
	// ISABELA is the sort-and-spline baseline.
	ISABELA
	// ZFPRATE is ZFP's fixed-rate mode (exact bits/value, no error bound);
	// produced by CompressFixedRate.
	ZFPRATE
	// FPZIP32 is FPZIP's native float32 layout (1+8 sign/exponent bits, the
	// paper's -p 13/16/19 settings); produced by Compress32 with FPZIP.
	FPZIP32
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	if c := codecFor(a); c != nil {
		return c.name
	}
	return fmt.Sprintf("Algorithm(%d)", byte(a))
}

// RelativeAlgorithms lists the compressors that accept a point-wise
// relative bound (the paper's Table IV / Figure 2 competitors).
func RelativeAlgorithms() []Algorithm {
	return []Algorithm{ISABELA, FPZIP, SZPWR, SZT, ZFPP, ZFPT}
}

// LogBase selects the transform's logarithm base for SZT/ZFPT; its
// String method prints 2, e or 10.
type LogBase = core.Base

const (
	// Base2 is the default and the paper's recommendation.
	Base2 = core.Base2
	// BaseE uses natural logarithms (base study only).
	BaseE = core.BaseE
	// Base10 uses decimal logarithms (base study only).
	Base10 = core.Base10
)

// Options tunes the compressors; the zero value (or nil) selects the
// defaults used in the paper's evaluation.
type Options struct {
	// Base is the log-transform base for SZT/ZFPT (default base 2).
	Base LogBase
	// Intervals is SZ's quantization interval count (default 65536).
	Intervals int
	// BlockSide is SZ_PWR's block edge length (default 8).
	BlockSide int
	// DisableRoundoffGuard removes Lemma 2's round-off adjustment in the
	// transform scheme (ablation only).
	DisableRoundoffGuard bool
}

func (o *Options) szOpts() *sz.Options {
	if o == nil {
		return nil
	}
	return &sz.Options{Intervals: o.Intervals, BlockSide: o.BlockSide}
}

func (o *Options) coreOpts() *core.Options {
	if o == nil {
		return nil
	}
	return &core.Options{Base: o.Base, DisableRoundoffGuard: o.DisableRoundoffGuard}
}

// boundKind is the kind of bound an algorithm's compressor takes, which
// fixes the entry point that accepts it.
type boundKind byte

const (
	boundRel  boundKind = iota // point-wise relative, in (0,1): Compress and the stream writers
	boundAbs                   // absolute: CompressAbs
	boundRate                  // bits per value, no error bound: CompressFixedRate
	boundF32                   // point-wise relative over float32 data: Compress32
)

// takes names each bound kind and its entry point, for admission errors.
var takes = [...]string{
	boundRel:  "a point-wise relative bound; use Compress",
	boundAbs:  "an absolute bound; use CompressAbs",
	boundRate: "bits per value; use CompressFixedRate",
	boundF32:  "float32 data; use Compress32",
}

// codec is one algorithm's row of the codecs table.
type codec struct {
	name  string // the paper's name
	bound boundKind
	// The decode guarantees WithVerifyOnWrite asserts (NaN and ±Inf
	// survive every algorithm). keepsZeros: exact zeros decode to exact
	// zeros. holdsBound: every finite normal value decodes within the
	// point-wise relative bound the compressor took; false for ZFP_P,
	// which only aims at it.
	keepsZeros, holdsBound bool
	// compress encodes data under bound into the inner stream a plain
	// container wraps. FPZIP32 has none: Compress32 encodes its
	// float32s directly.
	compress func(data []float64, dims []int, bound float64, opts *Options) ([]byte, error)
	// decompress decodes an inner stream.
	decompress func(inner []byte) ([]float64, []int, error)
}

// codecs holds every algorithm's facts, indexed by Algorithm: String,
// the Compress* entry points, Decompress, the stream writers' admission
// check and WithVerifyOnWrite all read them here. Its rows are function
// values rather than implementations of an interface, so a wrapper
// around one algorithm replaces two fields.
var codecs = [...]codec{
	SZT: {"SZ_T", boundRel, true, true,
		func(data []float64, dims []int, b float64, o *Options) ([]byte, error) {
			return core.Compress(data, dims, b, core.SZBackend{Opts: o.szOpts()}, o.coreOpts())
		}, core.Decompress},
	ZFPT: {"ZFP_T", boundRel, true, true,
		func(data []float64, dims []int, b float64, o *Options) ([]byte, error) {
			return core.Compress(data, dims, b, core.ZFPBackend{}, o.coreOpts())
		}, core.Decompress},
	SZABS: {"SZ_ABS", boundAbs, false, false,
		func(data []float64, dims []int, b float64, o *Options) ([]byte, error) {
			return sz.CompressAbs(data, dims, b, o.szOpts())
		}, sz.Decompress},
	SZPWR: {"SZ_PWR", boundRel, false, true,
		func(data []float64, dims []int, b float64, o *Options) ([]byte, error) {
			return sz.CompressPWR(data, dims, b, o.szOpts())
		}, sz.Decompress},
	ZFPACC: {"ZFP_ACC", boundAbs, false, false,
		func(data []float64, dims []int, b float64, _ *Options) ([]byte, error) {
			return zfp.CompressAccuracy(data, dims, b)
		}, zfp.Decompress},
	ZFPP: {"ZFP_P", boundRel, false, false,
		func(data []float64, dims []int, b float64, _ *Options) ([]byte, error) {
			// The paper's per-bound setting: enough bit planes that typical
			// data lands near the bound, without guaranteeing it.
			p := int(math.Ceil(math.Log2(1/b))) + 10
			return zfp.CompressPrecision(data, dims, max(1, min(p, 64)))
		}, zfp.Decompress},
	FPZIP: {"FPZIP", boundRel, true, true,
		func(data []float64, dims []int, b float64, _ *Options) ([]byte, error) {
			p, err := fpzip.PrecisionForRelBound(b)
			if err != nil {
				return nil, err
			}
			return fpzip.Compress(data, dims, p)
		}, fpzip.Decompress},
	ISABELA: {"ISABELA", boundRel, true, true,
		func(data []float64, dims []int, b float64, _ *Options) ([]byte, error) {
			return isabela.Compress(data, dims, b, nil)
		}, isabela.Decompress},
	ZFPRATE: {"ZFP_RATE", boundRate, false, false,
		func(data []float64, dims []int, b float64, _ *Options) ([]byte, error) {
			return zfp.CompressRate(data, dims, b)
		}, zfp.Decompress},
	FPZIP32: {"FPZIP32", boundF32, true, true, nil,
		func(inner []byte) ([]float64, []int, error) {
			f32, dims, err := fpzip.Decompress32(inner)
			if err != nil {
				return nil, nil, err
			}
			return widen(f32), dims, nil
		}},
}

// codecFor returns algo's row of the codecs table, or nil for a value
// that names no algorithm.
func codecFor(algo Algorithm) *codec {
	if int(algo) < len(codecs) && codecs[algo].name != "" {
		return &codecs[algo]
	}
	return nil
}

// admit resolves algo's codec and checks that it takes a bound of the
// given kind; a relative bound must also lie in (0,1). The stream
// writers call it before they emit a byte.
func admit(algo Algorithm, kind boundKind, bound float64) (*codec, error) {
	c := codecFor(algo)
	switch {
	case c == nil:
		return nil, fmt.Errorf("repro: unknown algorithm %v", algo)
	case c.bound == boundAbs && kind == boundRel:
		return nil, ErrNeedsAbsolute
	case c.bound != kind:
		return nil, fmt.Errorf("repro: %v takes %s", algo, takes[c.bound])
	case kind == boundRel && !(bound > 0 && bound < 1):
		return nil, fmt.Errorf("repro: relative bound %v out of (0,1)", bound)
	}
	return c, nil
}

// ErrNeedsAbsolute reports a relative bound passed to an algorithm that
// takes an absolute one (SZ_ABS, ZFP_ACC). The decode-error sentinels
// (ErrCorrupted, ErrTruncated, ErrLimitExceeded, ErrUnsupportedFormat)
// live in errors.go.
var ErrNeedsAbsolute = errors.New("repro: algorithm takes an absolute bound; use CompressAbs")

const containerMagic = 0xC5

// Compress encodes data under the point-wise relative error bound relBound
// (in (0,1); e.g. 0.01 keeps every value within 1% of the original).
func Compress(data []float64, dims []int, relBound float64, algo Algorithm, opts *Options) ([]byte, error) {
	return encode(boundRel, data, dims, relBound, algo, opts)
}

// CompressAbs encodes data under an absolute error bound using SZABS or
// ZFPACC.
func CompressAbs(data []float64, dims []int, absBound float64, algo Algorithm, opts *Options) ([]byte, error) {
	return encode(boundAbs, data, dims, absBound, algo, opts)
}

// encode validates the geometry, admits algo for a bound of the given
// kind, and wraps what its compressor writes.
func encode(kind boundKind, data []float64, dims []int, bound float64, algo Algorithm, opts *Options) ([]byte, error) {
	if err := grid.Validate(dims, len(data)); err != nil {
		return nil, err
	}
	c, err := admit(algo, kind, bound)
	if err != nil {
		return nil, err
	}
	inner, err := c.compress(data, dims, bound, opts)
	if err != nil {
		return nil, err
	}
	return wrap(algo, inner), nil
}

// CompressValueRange encodes data under a *value-range relative* bound:
// the absolute bound is ratio × (max − min) over the field. This is SZ's
// classic "REL" mode — a single global bound, unlike the point-wise
// relative bound the transform scheme provides. algo must be SZABS or
// ZFPACC. A constant field (range 0) is stored with a tiny absolute bound.
func CompressValueRange(data []float64, dims []int, ratio float64, algo Algorithm, opts *Options) ([]byte, error) {
	if !(ratio > 0) || ratio >= 1 {
		return nil, fmt.Errorf("repro: value-range ratio %v out of (0,1)", ratio)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	bound := ratio * (hi - lo)
	if !(bound > 0) {
		// Constant or empty range: any positive bound is exact enough.
		bound = math.SmallestNonzeroFloat64 * 1e16
		if hi > lo || !math.IsInf(lo, 1) {
			m := math.Max(math.Abs(lo), math.Abs(hi))
			if m > 0 {
				bound = m * 1e-15
			}
		}
	}
	return CompressAbs(data, dims, bound, algo, opts)
}

// CompressFixedRate encodes data at exactly bitsPerValue bits per value
// using ZFP's fixed-rate mode. No error bound is guaranteed; use it for
// fixed-budget storage or the rate-distortion sweeps of Figure 1.
func CompressFixedRate(data []float64, dims []int, bitsPerValue float64) ([]byte, error) {
	return encode(boundRate, data, dims, bitsPerValue, ZFPRATE, nil)
}

// wrap frames an inner stream as [magic | algo | crc32(inner) | inner].
// The checksum catches storage/transport corruption up front, before the
// per-algorithm parsers see the payload.
func wrap(algo Algorithm, inner []byte) []byte {
	out := make([]byte, 0, len(inner)+6)
	out = append(out, containerMagic, byte(algo))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(inner))
	return append(out, inner...)
}

// Decompress decodes any stream produced by Compress or CompressAbs.
func Decompress(buf []byte) (_ []float64, _ []int, err error) {
	defer recoverDecode(&err)
	algo, err := AlgorithmOf(buf)
	if err != nil {
		return nil, nil, err
	}
	if len(buf) < 6 {
		return nil, nil, fmt.Errorf("%w (plain container header)", ErrTruncated)
	}
	inner := buf[6:]
	if crc32.ChecksumIEEE(inner) != binary.BigEndian.Uint32(buf[2:6]) {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupted)
	}
	c := codecFor(algo)
	if c == nil {
		return nil, nil, fmt.Errorf("%w: algorithm byte %d", ErrCorrupted, buf[1])
	}
	data, dims, err := c.decompress(inner)
	if err != nil {
		// The container CRC covers the payload but not the algo byte, so
		// a payload the named codec rejects means the container itself is
		// damaged (most often a flipped algorithm byte dispatching to the
		// wrong decoder).
		return nil, nil, fmt.Errorf("%w: %v payload: %w", ErrCorrupted, algo, err)
	}
	return data, dims, nil
}

// AlgorithmOf reports which algorithm produced the stream.
func AlgorithmOf(buf []byte) (Algorithm, error) {
	if len(buf) >= 1 && buf[0] != containerMagic {
		return 0, fmt.Errorf("%w: leading byte 0x%02x", ErrUnsupportedFormat, buf[0])
	}
	if len(buf) < 2 {
		return 0, fmt.Errorf("%w (plain container header)", ErrTruncated)
	}
	return Algorithm(buf[1]), nil
}

// Compress32 compresses float32 data. FPZIP uses its native float32
// layout (the paper's exact -p settings, and fewer mantissa bits to code);
// every other algorithm widens to float64 with unchanged bound semantics.
func Compress32(data []float32, dims []int, relBound float64, algo Algorithm, opts *Options) ([]byte, error) {
	if algo != FPZIP && algo != FPZIP32 {
		return Compress(widen(data), dims, relBound, algo, opts)
	}
	p, err := fpzip.PrecisionForRelBound32(relBound)
	if err != nil {
		return nil, err
	}
	inner, err := fpzip.Compress32(data, dims, p)
	if err != nil {
		return nil, err
	}
	return wrap(FPZIP32, inner), nil
}

// Decompress32 decodes into float32s, narrowing what Decompress
// returns (exactly, for FPZIP32).
func Decompress32(buf []byte) ([]float32, []int, error) {
	wide, dims, err := Decompress(buf)
	if err != nil {
		return nil, nil, err
	}
	out := make([]float32, len(wide))
	for i, v := range wide {
		out[i] = float32(v)
	}
	return out, dims, nil
}

// widen converts float32s to float64s, exactly.
func widen(f32 []float32) []float64 {
	out := make([]float64, len(f32))
	for i, v := range f32 {
		out[i] = float64(v)
	}
	return out
}
