// Package predictor implements the Lorenzo predictor family used by the SZ
// and FPZIP re-implementations. The Lorenzo predictor estimates a point from
// its already-visited neighbors by inclusion–exclusion over the unit cube
// corner opposite the point: 1 neighbor in 1D, 3 in 2D, 7 in 3D (the
// neighbor counts quoted in the paper's footnote 1).
//
// During compression the neighbors must be *reconstructed* values (not the
// originals) so that decompression, which only has reconstructed values,
// applies the identical prediction and errors do not propagate (paper
// footnote 2). The Field type therefore operates over a caller-maintained
// reconstruction buffer: float64 values for SZ, and for FPZIP the
// order-preserving integer mapping of the floats.
package predictor

import (
	"repro/internal/grid"
)

// Field predicts values over an N-d row-major array backed by Buf. The
// caller writes reconstructed values into Buf as it advances; Predict(i)
// only reads indices smaller than i in row-major order.
type Field[T ~float64 | ~int64] struct {
	Buf     []T
	dims    []int
	strides []int
	rank    int
}

// NewField constructs a predictor over a reconstruction buffer with the
// given dimensions. len(buf) must equal the product of dims.
func NewField[T ~float64 | ~int64](buf []T, dims []int) (*Field[T], error) {
	if err := grid.Validate(dims, len(buf)); err != nil {
		return nil, err
	}
	return &Field[T]{Buf: buf, dims: dims, strides: grid.Strides(dims), rank: len(dims)}, nil
}

// Dims returns the field dimensions.
func (f *Field[T]) Dims() []int { return f.dims }

// Predict returns the Lorenzo prediction for linear index lin, given the
// multi-index coordinates coord (which must correspond to lin). Border
// points fall back to lower-order Lorenzo predictions with missing
// neighbors treated as zero, matching SZ's handling of array boundaries.
func (f *Field[T]) Predict(lin int, coord []int) T {
	switch f.rank {
	case 1:
		if coord[0] == 0 {
			return 0
		}
		return f.Buf[lin-1]
	case 2:
		i, j := coord[0], coord[1]
		sj := f.strides[0]
		var a, b, c T // a = left, b = up, c = up-left
		if j > 0 {
			a = f.Buf[lin-1]
		}
		if i > 0 {
			b = f.Buf[lin-sj]
		}
		if i > 0 && j > 0 {
			c = f.Buf[lin-sj-1]
		}
		return a + b - c
	case 3:
		i, j, k := coord[0], coord[1], coord[2]
		si, sj := f.strides[0], f.strides[1]
		var v100, v010, v001, v110, v101, v011, v111 T
		if k > 0 {
			v001 = f.Buf[lin-1]
		}
		if j > 0 {
			v010 = f.Buf[lin-sj]
		}
		if i > 0 {
			v100 = f.Buf[lin-si]
		}
		if j > 0 && k > 0 {
			v011 = f.Buf[lin-sj-1]
		}
		if i > 0 && k > 0 {
			v101 = f.Buf[lin-si-1]
		}
		if i > 0 && j > 0 {
			v110 = f.Buf[lin-si-sj]
		}
		if i > 0 && j > 0 && k > 0 {
			v111 = f.Buf[lin-si-sj-1]
		}
		return v001 + v010 + v100 - v011 - v101 - v110 + v111
	default:
		return f.predictGeneric(lin, coord)
	}
}

// predictGeneric applies the inclusion–exclusion Lorenzo formula for any
// rank (used for rank 4, e.g. time-series snapshot stacks): the predictor
// sums the values at every nonempty corner subset with sign (−1)^(|S|+1).
func (f *Field[T]) predictGeneric(lin int, coord []int) T {
	var p T
	for mask := 1; mask < 1<<f.rank; mask++ {
		off := 0
		ok := true
		bits := 0
		for d := 0; d < f.rank; d++ {
			if mask&(1<<d) != 0 {
				if coord[d] == 0 {
					ok = false
					break
				}
				off += f.strides[d]
				bits++
			}
		}
		if !ok {
			continue
		}
		if bits%2 == 1 {
			p += f.Buf[lin-off]
		} else {
			p -= f.Buf[lin-off]
		}
	}
	return p
}

// Walk iterates the field in row-major order, calling fn with the linear
// index and coordinates. The coord slice is reused between calls.
func (f *Field[T]) Walk(fn func(lin int, coord []int)) {
	coord := make([]int, f.rank)
	n := grid.Size(f.dims)
	for lin := 0; lin < n; lin++ {
		fn(lin, coord)
		for d := f.rank - 1; d >= 0; d-- {
			coord[d]++
			if coord[d] < f.dims[d] {
				break
			}
			coord[d] = 0
		}
	}
}
