package fpzip

import "math"

// Float32 layout: 1 sign + 8 exponent bits, so truncating to p bits keeps
// p−9 mantissa bits and the guaranteed relative error is 2^(9−p). This is
// the layout behind the paper's Table IV settings (-p 13/16/19 for bounds
// 1e-1/1e-2/1e-3), which this file reproduces natively rather than through
// the float64 widening path.
var float32Layout = layout{magic: 0x46505A32, width: 32, signExp: 9, inf: 0x7F800000, nan: 0x7FC00000} // "FPZ2"

// PrecisionForRelBound32 returns the smallest float32 precision whose
// guaranteed maximum relative error 2^(9−p) is ≤ relBound. The returned
// values match the paper's Table IV settings column.
func PrecisionForRelBound32(relBound float64) (int, error) {
	return float32Layout.precision(relBound)
}

// MaxRelError32 returns the guaranteed maximum relative error of float32
// precision p.
func MaxRelError32(p int) float64 { return float32Layout.maxRelError(p) }

// Compress32 encodes float32 data with precision p in [2, 32]; p = 32 is
// lossless for non-NaN input.
func Compress32(data []float32, dims []int, p int) ([]byte, error) {
	tr := make([]int64, len(data))
	for i, v := range data {
		tr[i] = float32Layout.truncate(uint64(math.Float32bits(v)), p)
	}
	return float32Layout.encode(tr, dims, p)
}

// Decompress32 decodes a stream produced by Compress32.
func Decompress32(buf []byte) ([]float32, []int, error) {
	p, dims, tr, err := float32Layout.decode(buf)
	if err != nil {
		return nil, nil, err
	}
	out := make([]float32, len(tr))
	for i, t := range tr {
		u, ok := float32Layout.restore(t, p)
		if !ok {
			return nil, nil, ErrCorrupt
		}
		out[i] = math.Float32frombits(uint32(u))
	}
	return out, dims, nil
}
