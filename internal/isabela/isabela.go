// Package isabela is a clean-room Go re-implementation of the ISABELA
// in-situ sort-and-spline compressor (Lakshminarasimhan et al., CCPE 2013),
// the oldest of the paper's point-wise-relative baselines.
//
// ISABELA splits the stream into fixed windows, sorts each window (storing
// the permutation index explicitly — the large "index overhead" the paper
// cites), fits a cubic B-spline to the now-monotone data, and stores
// per-point error-quantization corrections so that each value respects the
// requested point-wise relative error bound. The sort makes compression
// slow and the per-point index bits cap the achievable ratio — both
// weaknesses the paper's evaluation reproduces.
package isabela

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/bitio"
	"repro/internal/bspline"
	"repro/internal/floatbits"
	"repro/internal/grid"
	"repro/internal/huffman"
)

const (
	magic = 0x49534131 // "ISA1"
	// symExact flags a value stored verbatim (64 raw bits follow).
	symExact = 65
	alphabet = 66
)

var (
	// ErrCorrupt reports a malformed stream.
	ErrCorrupt = errors.New("isabela: corrupt stream")
	// ErrBadBound reports an out-of-range relative bound.
	ErrBadBound = errors.New("isabela: relative bound must be in (0, 1)")
)

// Options tunes the compressor; the zero value selects the defaults used in
// the ISABELA paper (1024-point windows, 30 spline coefficients).
type Options struct {
	Window int // window length (default 1024)
	Coeffs int // spline control points per window (default 30)
}

func (o *Options) withDefaults() Options {
	opt := Options{Window: 1024, Coeffs: 30}
	if o != nil {
		if o.Window >= 16 {
			opt.Window = o.Window
		}
		if o.Coeffs >= 4 {
			opt.Coeffs = o.Coeffs
		}
	}
	return opt
}

// Compress encodes data under the point-wise relative bound relBound.
// ISABELA treats the field as a 1D stream regardless of rank (dims is kept
// for the container only). Zero values are stored exactly.
func Compress(data []float64, dims []int, relBound float64, opts *Options) ([]byte, error) {
	if err := grid.Validate(dims, len(data)); err != nil {
		return nil, err
	}
	if !(relBound > 0) || relBound >= 1 {
		return nil, ErrBadBound
	}
	opt := opts.withDefaults()
	n := len(data)
	ba := math.Log2(1+relBound) * 0.999 // slack absorbs log/exp round-off

	type window struct {
		start, length int
		nctrl         int
		perm          []int
		coeffs        []float64
		syms          []int    // bit-length symbol (or symExact) per point
		resid         []uint64 // zigzag correction per point (when not exact)
		exact         []uint64 // raw bits for exact points in order
	}
	windows := make([]window, 0, (n+opt.Window-1)/opt.Window)
	freqs := make([]uint64, alphabet)
	sortbuf := make([]float64, min(opt.Window, n))

	for start := 0; start < n; start += opt.Window {
		wlen := opt.Window
		if start+wlen > n {
			wlen = n - start
		}
		wd := window{start: start, length: wlen}
		vals := data[start : start+wlen]

		// Sort by value, keeping the permutation. perm[j] is the original
		// offset of the j-th smallest value.
		//lint:allow allochot retained by the window record until serialization
		wd.perm = make([]int, wlen)
		for i := range wd.perm {
			wd.perm[i] = i
		}
		sort.SliceStable(wd.perm, func(a, b int) bool { return vals[wd.perm[a]] < vals[wd.perm[b]] })
		sorted := sortbuf[:wlen]
		for j, p := range wd.perm {
			sorted[j] = vals[p]
		}

		// Spline fit of the monotone curve (skip for tiny windows).
		wd.nctrl = opt.Coeffs
		if wd.nctrl > wlen {
			wd.nctrl = wlen
		}
		var approx []float64
		if wd.nctrl >= 4 {
			curve, err := bspline.Fit(sorted, wd.nctrl)
			if err == nil {
				wd.coeffs = curve.Ctrl
				approx = curve.EvalAll(wlen, nil)
			}
		}
		if wd.coeffs == nil {
			wd.nctrl = 0 // all points exact
		}

		//lint:allow allochot retained by the window record until serialization
		wd.syms = make([]int, wlen)
		//lint:allow allochot retained by the window record until serialization
		wd.resid = make([]uint64, wlen)
		for j := 0; j < wlen; j++ {
			v := sorted[j]
			ok := false
			var c int64
			if wd.coeffs != nil && !floatbits.IsZero(v) && !math.IsNaN(v) && !math.IsInf(v, 0) {
				a := approx[j]
				if !floatbits.IsZero(a) && math.Signbit(a) == math.Signbit(v) && !math.IsInf(a, 0) && !math.IsNaN(a) {
					la := math.Log2(math.Abs(a))
					lv := math.Log2(math.Abs(v))
					c = int64(math.Round((lv - la) / ba))
					rec := math.Copysign(math.Exp2(la+float64(c)*ba), a)
					if math.Abs(rec-v) <= relBound*math.Abs(v) {
						ok = true
					}
				}
			}
			if ok {
				z := bitio.ZigZag(c)
				wd.resid[j] = z
				wd.syms[j] = bitlen(z)
			} else {
				wd.syms[j] = symExact
				wd.exact = append(wd.exact, math.Float64bits(v))
			}
			freqs[wd.syms[j]]++
		}
		windows = append(windows, wd)
	}

	codec, err := huffman.Build(freqs)
	if err != nil {
		return nil, err
	}

	w := bitio.NewWriter(n)
	for _, wd := range windows {
		// Permutation indices.
		pb := permBits(wd.length)
		for _, p := range wd.perm {
			w.WriteBits(uint64(p), pb)
		}
		// Spline coefficients.
		w.WriteBits(uint64(wd.nctrl), 16)
		for _, cf := range wd.coeffs {
			w.WriteBits(math.Float64bits(cf), 64)
		}
		// Corrections.
		ei := 0
		for j := 0; j < wd.length; j++ {
			if err := codec.Encode(w, wd.syms[j]); err != nil {
				return nil, err
			}
			switch {
			case wd.syms[j] == symExact:
				w.WriteBits(wd.exact[ei], 64)
				ei++
			case wd.syms[j] > 0:
				w.WriteBits(wd.resid[j], uint(wd.syms[j]-1))
			}
		}
	}
	payload := w.Bytes()

	out := make([]byte, 0, len(payload)+64)
	out = binary.BigEndian.AppendUint32(out, magic)
	out = grid.AppendDims(out, dims)
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(relBound))
	out = bitio.AppendUvarint(out, uint64(opt.Window))
	out = codec.AppendTable(out)
	out = bitio.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...), nil
}

// Decompress decodes a stream produced by Compress.
func Decompress(buf []byte) ([]float64, []int, error) {
	if len(buf) < 5 || binary.BigEndian.Uint32(buf) != magic {
		return nil, nil, ErrCorrupt
	}
	dims, off, err := grid.ParseDims(buf[4:], grid.MaxDims)
	if err != nil {
		return nil, nil, ErrCorrupt
	}
	off += 4
	if off+8 > len(buf) {
		return nil, nil, ErrCorrupt
	}
	relBound := math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	if !(relBound > 0) || relBound >= 1 {
		return nil, nil, ErrCorrupt
	}
	windowU, k := bitio.Uvarint(buf[off:])
	if k == 0 || windowU < 1 || windowU > 1<<30 {
		return nil, nil, ErrCorrupt
	}
	off += k
	codec, used, err := huffman.ParseTable(buf[off:])
	if err != nil {
		return nil, nil, err
	}
	off += used
	plen, k := bitio.Uvarint(buf[off:])
	if k == 0 || plen > uint64(len(buf)-off-k) {
		return nil, nil, ErrCorrupt
	}
	off += k
	r := bitio.NewReader(buf[off : off+int(plen)])

	n := grid.Size(dims)
	windowLen := int(windowU)
	ba := math.Log2(1+relBound) * 0.999
	out := make([]float64, n)
	// Scratch shared across windows; wlen <= windowLen and nctrl <= wlen,
	// and the min() keeps a huge header window from pre-allocating more
	// than the (already validated) field size.
	scratch := min(windowLen, n)
	permBuf := make([]int, scratch)
	ctrlBuf := make([]float64, scratch)

	for start := 0; start < n; start += windowLen {
		wlen := windowLen
		if start+wlen > n {
			wlen = n - start
		}
		pb := permBits(wlen)
		perm := permBuf[:wlen]
		for i := range perm {
			p, err := r.ReadBits(pb)
			if err != nil {
				return nil, nil, err
			}
			if p >= uint64(wlen) {
				return nil, nil, ErrCorrupt
			}
			perm[i] = int(p)
		}
		nctrlU, err := r.ReadBits(16)
		if err != nil {
			return nil, nil, err
		}
		nctrl := int(nctrlU) //lint:allow wrapreach ReadBits(16) caps the value at 2^16-1, well inside int
		if nctrl != 0 && (nctrl < 4 || nctrl > wlen) {
			return nil, nil, ErrCorrupt
		}
		var approx []float64
		if nctrl > 0 {
			ctrl := ctrlBuf[:nctrl]
			for i := range ctrl {
				bits, err := r.ReadBits(64)
				if err != nil {
					return nil, nil, err
				}
				ctrl[i] = math.Float64frombits(bits)
			}
			curve := &bspline.Curve{Ctrl: ctrl}
			approx = curve.EvalAll(wlen, nil)
		}
		for j := 0; j < wlen; j++ {
			sym, err := codec.Decode(r)
			if err != nil {
				return nil, nil, err
			}
			var v float64
			switch {
			case sym == symExact:
				bits, err := r.ReadBits(64)
				if err != nil {
					return nil, nil, err
				}
				v = math.Float64frombits(bits)
			case sym >= 0 && sym <= 64:
				var z uint64
				if sym > 0 {
					low, err := r.ReadBits(uint(sym - 1))
					if err != nil {
						return nil, nil, err
					}
					z = 1<<uint(sym-1) | low
				}
				if approx == nil {
					return nil, nil, ErrCorrupt
				}
				c := bitio.UnZigZag(z)
				a := approx[j]
				la := math.Log2(math.Abs(a))
				v = math.Copysign(math.Exp2(la+float64(c)*ba), a)
			default:
				return nil, nil, ErrCorrupt
			}
			out[start+perm[j]] = v
		}
	}
	return out, dims, nil
}

func permBits(wlen int) uint {
	b := uint(1)
	for (1 << b) < wlen {
		b++
	}
	return b
}

func bitlen(v uint64) int {
	n := 0
	for v != 0 {
		n++
		v >>= 1
	}
	return n
}

// String describes the compressor configuration (for experiment tables).
func (o Options) String() string {
	o = (&o).withDefaults()
	return fmt.Sprintf("isabela(W=%d,C=%d)", o.Window, o.Coeffs)
}
