// Package zfp is a clean-room Go re-implementation of the ZFP fixed-point
// block-transform compressor (Lindstrom, TVCG 2014), the transform-based
// absolute-error-bound backend used by the paper's transformation scheme.
//
// Each 4^d block goes through ZFP's pipeline:
//
//  1. Block floating-point alignment: all values are scaled by a common
//     power of two derived from the block's maximum exponent and cast to
//     62-bit fixed point.
//  2. An invertible integer lifting transform applied along each dimension
//     (the near-orthogonal decorrelating transform analyzed in Section
//     IV-B of the paper).
//  3. Total-sequency coefficient reordering.
//  4. Two's-complement → negabinary mapping.
//  5. Embedded (group-tested) bit-plane coding from the most significant
//     plane down, stopping at a per-block precision derived either from the
//     absolute error tolerance (fixed-accuracy mode) or from a fixed bit
//     count (precision mode, the ZFP_P baseline of the paper).
//
// Fixed-accuracy mode guarantees |decompressed − original| ≤ tolerance;
// precision mode does not bound the error for all data, which is exactly
// the deficiency Table IV of the paper demonstrates.
package zfp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/bitio"
	"repro/internal/floatbits"
	"repro/internal/grid"
)

const (
	magic    = 0x5A465031 // "ZFP1"
	modeAcc  = 1
	modePrec = 2
	modeRate = 3
	maxRank  = 3
	intprec  = 64
	// fpBits is the fixed-point magnitude budget: values scale to
	// |x| < 2^fpBits. Two bits below ZFP's intprec−2 buy headroom so the
	// lifting transform's range expansion (≤ ~1.25× per pass, with
	// intermediate sums up to ~3.2× over three passes) can never overflow
	// int64; the lost precision is compensated in blockPrecision.
	fpBits     = intprec - 4
	ebias      = 1100 // exponent bias for serialized emax (covers denormals)
	ebitsField = 12   // bits used to store the biased block exponent
	// nbmask is the negabinary conversion mask (alternating bits).
	nbmask = 0xaaaaaaaaaaaaaaaa
)

var (
	// ErrCorrupt reports a malformed or truncated stream.
	ErrCorrupt = errors.New("zfp: corrupt stream")
	// ErrBadParam reports an invalid tolerance or precision.
	ErrBadParam = errors.New("zfp: invalid parameter")
	// ErrNonFinite reports NaN or Inf in the input, which the ZFP pipeline
	// cannot represent.
	ErrNonFinite = errors.New("zfp: non-finite values unsupported")
)

// CompressAccuracy compresses data under an absolute error tolerance
// (ZFP's fixed-accuracy mode).
func CompressAccuracy(data []float64, dims []int, tolerance float64) ([]byte, error) {
	if !(tolerance > 0) || math.IsInf(tolerance, 0) || math.IsNaN(tolerance) {
		return nil, fmt.Errorf("%w: tolerance %v", ErrBadParam, tolerance)
	}
	return compress(data, dims, modeAcc, tolerance, 0)
}

// CompressPrecision compresses data keeping `precision` bit planes per
// block (ZFP's fixed-precision mode, the paper's ZFP_P baseline). The
// pointwise error is *not* uniformly bounded in this mode.
func CompressPrecision(data []float64, dims []int, precision int) ([]byte, error) {
	if precision < 1 || precision > intprec {
		return nil, fmt.Errorf("%w: precision %d", ErrBadParam, precision)
	}
	return compress(data, dims, modePrec, 0, precision)
}

// CompressRate compresses data at a fixed rate of `bitsPerValue` bits per
// value (ZFP's fixed-rate mode): every block occupies exactly the same
// number of bits, enabling random block access at an exactly predictable
// size, with neither an absolute nor a relative error guarantee.
func CompressRate(data []float64, dims []int, bitsPerValue float64) ([]byte, error) {
	if !(bitsPerValue >= 1) || bitsPerValue > 64 {
		return nil, fmt.Errorf("%w: rate %v bits/value", ErrBadParam, bitsPerValue)
	}
	// Encoded as "prec" = block bit budget.
	rank := len(dims)
	if rank == 0 || rank > maxRank {
		return nil, fmt.Errorf("zfp: rank %d unsupported", rank)
	}
	budget := int(bitsPerValue * float64(blockSize(rank)))
	if budget < 1+ebitsField+1 {
		budget = 1 + ebitsField + 1
	}
	return compress(data, dims, modeRate, 0, budget)
}

func compress(data []float64, dims []int, mode int, tol float64, prec int) ([]byte, error) {
	if err := grid.Validate(dims, len(data)); err != nil {
		return nil, err
	}
	if len(dims) > maxRank {
		return nil, fmt.Errorf("zfp: rank %d unsupported", len(dims))
	}
	for _, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrNonFinite
		}
	}
	rank := len(dims)
	bs := blockSize(rank)
	minexp := 0
	if mode == modeAcc {
		minexp = math.Ilogb(tol)
	}

	head := make([]byte, 0, 64)
	head = binary.BigEndian.AppendUint32(head, magic)
	//lint:allow intnarrow mode is one of the three small mode constants
	head = append(head, byte(mode))
	head = grid.AppendDims(head, dims)
	if mode == modeAcc {
		head = binary.BigEndian.AppendUint64(head, math.Float64bits(tol))
	} else {
		head = bitio.AppendUvarint(head, uint64(prec))
	}

	w := bitio.NewWriter(len(data)) // rough hint
	strides := grid.Strides(dims)
	block := make([]float64, bs)
	iblock := make([]int64, bs)
	ublock := make([]uint64, bs)
	err := grid.Blocks(dims, 4, func(b grid.Block) error {
		gatherBlock(data, strides, b, rank, block)
		encodeBlock(w, block, rank, mode, minexp, prec, iblock, ublock)
		return nil
	})
	if err != nil {
		return nil, err
	}
	payload := w.Bytes()
	out := head
	out = bitio.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...), nil
}

// Decompress decodes a stream produced by CompressAccuracy or
// CompressPrecision.
func Decompress(buf []byte) ([]float64, []int, error) {
	if len(buf) < 5 || binary.BigEndian.Uint32(buf) != magic {
		return nil, nil, ErrCorrupt
	}
	mode := int(buf[4])
	if mode != modeAcc && mode != modePrec && mode != modeRate {
		return nil, nil, ErrCorrupt
	}
	dims, off, err := grid.ParseDims(buf[5:], maxRank)
	if err != nil {
		return nil, nil, ErrCorrupt
	}
	off += 5
	rank := len(dims)
	minexp, prec := 0, 0
	if mode == modeAcc {
		if off+8 > len(buf) {
			return nil, nil, ErrCorrupt
		}
		tol := math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
		off += 8
		if !(tol > 0) || math.IsNaN(tol) || math.IsInf(tol, 0) {
			return nil, nil, ErrCorrupt
		}
		minexp = math.Ilogb(tol)
	} else {
		maxP := uint64(intprec)
		if mode == modeRate {
			maxP = 1 + ebitsField + 64*64 // header + all planes of a 3D block
		}
		p, k := bitio.Uvarint(buf[off:])
		if k == 0 || p < 1 || p > maxP {
			return nil, nil, ErrCorrupt
		}
		//lint:allow intnarrow guarded above: p <= maxP
		prec = int(p)
		off += k
	}
	plen, k := bitio.Uvarint(buf[off:])
	// Compare in uint64: int(plen) of a near-2^64 length would wrap
	// negative and slip past an int comparison.
	if k == 0 || plen > uint64(len(buf)-off-k) {
		return nil, nil, ErrCorrupt
	}
	off += k
	//lint:allow intnarrow guarded above: plen <= len(buf)
	r := bitio.NewReader(buf[off : off+int(plen)])

	n := grid.Size(dims)
	out := make([]float64, n)
	strides := grid.Strides(dims)
	bs := blockSize(rank)
	block := make([]float64, bs)
	iblock := make([]int64, bs)
	ublock := make([]uint64, bs)
	err = grid.Blocks(dims, 4, func(b grid.Block) error {
		if err := decodeBlock(r, block, rank, mode, minexp, prec, iblock, ublock); err != nil {
			return err
		}
		scatterBlock(out, strides, b, rank, block)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, dims, nil
}

func blockSize(rank int) int {
	n := 1
	for i := 0; i < rank; i++ {
		n *= 4
	}
	return n
}

// gatherBlock copies block b into dst (length 4^rank), padding partial
// blocks by edge replication along each dimension, as ZFP does.
func gatherBlock(data []float64, strides []int, b grid.Block, rank int, dst []float64) {
	// idx[d] runs over the full 4-cube; clamp to extent-1 for padding.
	switch rank {
	case 1:
		for i := 0; i < 4; i++ {
			ii := i
			if ii >= b.Extent[0] {
				ii = b.Extent[0] - 1
			}
			dst[i] = data[(b.Origin[0]+ii)*strides[0]]
		}
	case 2:
		for j := 0; j < 4; j++ {
			jj := j
			if jj >= b.Extent[0] {
				jj = b.Extent[0] - 1
			}
			for i := 0; i < 4; i++ {
				ii := i
				if ii >= b.Extent[1] {
					ii = b.Extent[1] - 1
				}
				dst[j*4+i] = data[(b.Origin[0]+jj)*strides[0]+(b.Origin[1]+ii)*strides[1]]
			}
		}
	case 3:
		for kk := 0; kk < 4; kk++ {
			k := kk
			if k >= b.Extent[0] {
				k = b.Extent[0] - 1
			}
			for j := 0; j < 4; j++ {
				jj := j
				if jj >= b.Extent[1] {
					jj = b.Extent[1] - 1
				}
				for i := 0; i < 4; i++ {
					ii := i
					if ii >= b.Extent[2] {
						ii = b.Extent[2] - 1
					}
					dst[(kk*4+j)*4+i] = data[(b.Origin[0]+k)*strides[0]+(b.Origin[1]+jj)*strides[1]+(b.Origin[2]+ii)*strides[2]]
				}
			}
		}
	}
}

// scatterBlock writes the real (non-padded) portion of a decoded block back
// into the output array.
func scatterBlock(out []float64, strides []int, b grid.Block, rank int, src []float64) {
	switch rank {
	case 1:
		for i := 0; i < b.Extent[0]; i++ {
			out[(b.Origin[0]+i)*strides[0]] = src[i]
		}
	case 2:
		for j := 0; j < b.Extent[0]; j++ {
			for i := 0; i < b.Extent[1]; i++ {
				out[(b.Origin[0]+j)*strides[0]+(b.Origin[1]+i)*strides[1]] = src[j*4+i]
			}
		}
	case 3:
		for k := 0; k < b.Extent[0]; k++ {
			for j := 0; j < b.Extent[1]; j++ {
				for i := 0; i < b.Extent[2]; i++ {
					out[(b.Origin[0]+k)*strides[0]+(b.Origin[1]+j)*strides[1]+(b.Origin[2]+i)*strides[2]] = src[(k*4+j)*4+i]
				}
			}
		}
	}
}

// blockPrecision computes the number of bit planes to encode for a block
// with maximum exponent emax (ZFP's precision() helper): fixed-precision
// mode uses prec directly; fixed-accuracy mode keeps emax − minexp planes
// plus guard bits covering transform range growth, inverse-transform error
// amplification and the extra fixed-point headroom. The conservatism this
// introduces is the "over-preserved bound" behaviour the paper reports for
// ZFP in Section VI-C.
func blockPrecision(mode, emax, minexp, prec, rank int) int {
	if mode == modePrec {
		return prec
	}
	if mode == modeRate {
		// All planes admissible; the bit budget does the truncation.
		return intprec
	}
	// Guard-bit budget: 2·rank bits for inverse-transform error
	// amplification, 2 bits for the extra fixed-point headroom above, and
	// 4 bits so the negabinary truncation granularity (≤ 2^(kmin+1) fixed
	// units) lands at ≤ tol/4 before the inverse gain is applied.
	p := emax - minexp + 2*rank + 6
	if p < 0 {
		p = 0
	}
	if p > intprec {
		p = intprec
	}
	return p
}

func encodeBlock(w *bitio.Writer, block []float64, rank, mode, minexp, prec int, iblock []int64, ublock []uint64) {
	n := blockSize(rank)
	start := w.BitsWritten()
	blockBudget := 0 // 0 = variable-length block
	if mode == modeRate {
		blockBudget = prec
	}
	maxAbs := 0.0
	for i := 0; i < n; i++ {
		if a := math.Abs(block[i]); a > maxAbs {
			maxAbs = a
		}
	}
	if floatbits.IsZero(maxAbs) {
		w.WriteBit(0) // empty (all-zero) block
		padBlock(w, start, blockBudget)
		return
	}
	emax := math.Ilogb(maxAbs)
	maxprec := blockPrecision(mode, emax, minexp, prec, rank)
	if maxprec == 0 {
		// Everything below tolerance: decodes as zero.
		w.WriteBit(0)
		padBlock(w, start, blockBudget)
		return
	}
	w.WriteBit(1)
	w.WriteBits(uint64(emax+ebias), ebitsField)

	// Block floating-point: scale so |x| < 2^fpBits+1 before the transform.
	scale := math.Ldexp(1, fpBits-1-emax)
	for i := 0; i < n; i++ {
		iblock[i] = int64(block[i] * scale)
	}
	forwardTransform(iblock, rank)
	perm := permTable(rank)
	for i := 0; i < n; i++ {
		ublock[i] = int2uint(iblock[perm[i]])
	}
	planeBudget := unlimitedBits
	if mode == modeRate {
		planeBudget = blockBudget - 1 - ebitsField
	}
	encodeInts(w, ublock, maxprec, planeBudget)
	padBlock(w, start, blockBudget)
}

// padBlock zero-fills a fixed-rate block to exactly `budget` bits.
func padBlock(w *bitio.Writer, start uint64, budget int) {
	if budget <= 0 {
		return
	}
	for w.BitsWritten()-start < uint64(budget) {
		w.WriteBit(0)
	}
}

func decodeBlock(r *bitio.Reader, block []float64, rank, mode, minexp, prec int, iblock []int64, ublock []uint64) error {
	n := blockSize(rank)
	start := r.BitsRead()
	blockBudget := 0
	if mode == modeRate {
		blockBudget = prec
	}
	bit, err := r.ReadBit()
	if err != nil {
		return err
	}
	if bit == 0 {
		for i := 0; i < n; i++ {
			block[i] = 0
		}
		return skipPad(r, start, blockBudget)
	}
	e, err := r.ReadBits(ebitsField)
	if err != nil {
		return err
	}
	//lint:allow intnarrow e < 2^ebitsField by the ReadBits contract
	emax := int(e) - ebias
	if emax < -1090 || emax > 1030 {
		return ErrCorrupt
	}
	maxprec := blockPrecision(mode, emax, minexp, prec, rank)
	planeBudget := unlimitedBits
	if mode == modeRate {
		planeBudget = blockBudget - 1 - ebitsField
	}
	if err := decodeInts(r, ublock[:n], maxprec, planeBudget); err != nil {
		return err
	}
	if err := skipPad(r, start, blockBudget); err != nil {
		return err
	}
	perm := permTable(rank)
	for i := 0; i < n; i++ {
		iblock[perm[i]] = uint2int(ublock[i])
	}
	inverseTransform(iblock, rank)
	scale := math.Ldexp(1, emax+1-fpBits)
	for i := 0; i < n; i++ {
		block[i] = float64(iblock[i]) * scale
	}
	return nil
}

// skipPad consumes the zero padding of a fixed-rate block.
func skipPad(r *bitio.Reader, start uint64, budget int) error {
	if budget <= 0 {
		return nil
	}
	for r.BitsRead()-start < uint64(budget) {
		if _, err := r.ReadBit(); err != nil {
			return err
		}
	}
	return nil
}

func int2uint(x int64) uint64 { return (uint64(x) + nbmask) ^ nbmask }

//lint:allow intnarrow intentional negabinary reinterpretation across the full 64-bit width
func uint2int(u uint64) int64 { return int64((u ^ nbmask) - nbmask) }

// fwdLift applies ZFP's forward lifting step to four values at stride s.
func fwdLift(p []int64, off, s int) {
	x, y, z, w := p[off], p[off+s], p[off+2*s], p[off+3*s]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	p[off], p[off+s], p[off+2*s], p[off+3*s] = x, y, z, w
}

// invLift inverts fwdLift.
func invLift(p []int64, off, s int) {
	x, y, z, w := p[off], p[off+s], p[off+2*s], p[off+3*s]
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[off], p[off+s], p[off+2*s], p[off+3*s] = x, y, z, w
}

func forwardTransform(p []int64, rank int) {
	switch rank {
	case 1:
		fwdLift(p, 0, 1)
	case 2:
		for y := 0; y < 4; y++ {
			fwdLift(p, y*4, 1)
		}
		for x := 0; x < 4; x++ {
			fwdLift(p, x, 4)
		}
	case 3:
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				fwdLift(p, (z*4+y)*4, 1)
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				fwdLift(p, z*16+x, 4)
			}
		}
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				fwdLift(p, y*4+x, 16)
			}
		}
	}
}

func inverseTransform(p []int64, rank int) {
	switch rank {
	case 1:
		invLift(p, 0, 1)
	case 2:
		for x := 0; x < 4; x++ {
			invLift(p, x, 4)
		}
		for y := 0; y < 4; y++ {
			invLift(p, y*4, 1)
		}
	case 3:
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				invLift(p, y*4+x, 16)
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				invLift(p, z*16+x, 4)
			}
		}
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				invLift(p, (z*4+y)*4, 1)
			}
		}
	}
}

var permTables [maxRank + 1][]int

func init() {
	for rank := 1; rank <= maxRank; rank++ {
		permTables[rank] = makePerm(rank)
	}
}

// makePerm orders block coefficients by total sequency (sum of per-axis
// frequencies), which groups low-frequency — typically large — coefficients
// first so the embedded coder finds significance early.
func makePerm(rank int) []int {
	n := blockSize(rank)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	key := func(lin int) int {
		s := 0
		for d := 0; d < rank; d++ {
			s += lin % 4
			lin /= 4
		}
		return s
	}
	// Stable insertion sort by sequency (n ≤ 64).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && key(perm[j]) < key(perm[j-1]); j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	return perm
}

func permTable(rank int) []int { return permTables[rank] }

// unlimitedBits is the budget used by the accuracy and precision modes,
// which never exhaust it (a block holds at most 64 values × 64 planes plus
// group-test bits).
const unlimitedBits = 1 << 30

// encodeInts is ZFP's embedded bit-plane coder: each plane from the MSB
// down is emitted as (a) verbatim bits for values already known to be
// significant, then (b) a unary-coded group test discovering newly
// significant values. At most `budget` bits are written (the fixed-rate
// truncation point); the count written is returned.
func encodeInts(w *bitio.Writer, data []uint64, maxprec, budget int) int {
	size := len(data)
	kmin := 0
	if intprec > maxprec {
		kmin = intprec - maxprec
	}
	bits := budget
	n := 0
	for k := intprec - 1; bits > 0 && k >= kmin; k-- {
		// Step 1: extract bit plane k.
		var x uint64
		for i := 0; i < size; i++ {
			x += ((data[i] >> uint(k)) & 1) << uint(i)
		}
		// Step 2: verbatim bits for the first n (known significant) values.
		m := n
		if m > bits {
			m = bits
		}
		bits -= m
		for i := 0; i < m; i++ {
			w.WriteBit(uint(x & 1))
			x >>= 1
		}
		if m < n {
			x = 0 // plane truncated; nothing further decodable this plane
			continue
		}
		// Step 3: group-test the remainder.
		for n < size && bits > 0 {
			bits--
			if x != 0 {
				w.WriteBit(1)
			} else {
				w.WriteBit(0)
				break
			}
			// Unary-search the next significant value.
			stop := false
			for n < size-1 && bits > 0 {
				bits--
				if x&1 == 1 {
					w.WriteBit(1)
					stop = true
					break
				}
				w.WriteBit(0)
				x >>= 1
				n++
			}
			_ = stop
			x >>= 1
			n++
		}
	}
	return budget - bits
}

// decodeInts mirrors encodeInts with the identical budget accounting, so
// it consumes exactly the bits the encoder produced.
func decodeInts(r *bitio.Reader, data []uint64, maxprec, budget int) error {
	size := len(data)
	for i := range data {
		data[i] = 0
	}
	kmin := 0
	if intprec > maxprec {
		kmin = intprec - maxprec
	}
	bits := budget
	n := 0
	for k := intprec - 1; bits > 0 && k >= kmin; k-- {
		var x uint64
		m := n
		if m > bits {
			m = bits
		}
		bits -= m
		for i := 0; i < m; i++ {
			b, err := r.ReadBit()
			if err != nil {
				return err
			}
			x |= uint64(b) << uint(i)
		}
		if m < n {
			// Truncated plane: deposit what we have and stop reading more
			// of this plane (mirrors the encoder's continue).
			// x only has bits below size set, so this runs < size iterations
			for i := 0; x != 0; i, x = i+1, x>>1 {
				data[i] += (x & 1) << uint(k)
			}
			continue
		}
		for n < size && bits > 0 {
			bits--
			b, err := r.ReadBit()
			if err != nil {
				return err
			}
			if b == 0 {
				break
			}
			for n < size-1 && bits > 0 {
				bits--
				b, err := r.ReadBit()
				if err != nil {
					return err
				}
				if b == 1 {
					break
				}
				n++
			}
			x |= uint64(1) << uint(n)
			n++
		}
		// x only has bits below size set, so this runs < size iterations
		for i := 0; x != 0; i, x = i+1, x>>1 {
			data[i] += (x & 1) << uint(k)
		}
	}
	return nil
}
