// Package grid provides N-dimensional array geometry shared by all
// compressors: dimension validation, strides, and iteration over fixed-size
// blocks (SZ_PWR error-bound blocks and ZFP's 4^d transform blocks).
//
// Throughout the repository, dims follow C (row-major) order: dims[0] is the
// slowest-varying dimension and dims[len-1] the fastest. A scalar field of
// shape (nz, ny, nx) stores point (z, y, x) at index (z*ny+y)*nx+x.
package grid

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
)

// MaxDims is the highest dimensionality supported by the compressors here
// (the paper evaluates 1D particle data and 2D/3D meshes).
const MaxDims = 4

var (
	// ErrBadDims indicates an invalid dimension vector.
	ErrBadDims = errors.New("grid: invalid dimensions")
)

// Validate checks that dims is non-empty, within MaxDims, has only positive
// extents, and that the total element count matches n when n >= 0.
func Validate(dims []int, n int) error {
	if len(dims) == 0 || len(dims) > MaxDims {
		return fmt.Errorf("%w: rank %d", ErrBadDims, len(dims))
	}
	total := 1
	for _, d := range dims {
		if d <= 0 {
			return fmt.Errorf("%w: extent %d", ErrBadDims, d)
		}
		if total > (1<<62)/d {
			return fmt.Errorf("%w: element count overflow", ErrBadDims)
		}
		total *= d
	}
	if n >= 0 && total != n {
		return fmt.Errorf("%w: dims product %d != data length %d", ErrBadDims, total, n)
	}
	return nil
}

// maxExtent caps one extent a stream header may declare.
const maxExtent = 1 << 40

// AppendDims appends the geometry prefix every codec header carries: the
// rank, then each extent, as uvarints.
func AppendDims(dst []byte, dims []int) []byte {
	dst = bitio.AppendUvarint(dst, uint64(len(dims)))
	for _, d := range dims {
		dst = bitio.AppendUvarint(dst, uint64(d))
	}
	return dst
}

// ParseDims reads a prefix written by AppendDims and returns the dims and
// the bytes it took. It refuses a rank outside [1, maxRank], an extent of
// 0 or above 2^40, and dims whose product Validate refuses; callers map
// the error onto their own corrupt-stream error.
func ParseDims(buf []byte, maxRank int) ([]int, int, error) {
	rank, off := bitio.Uvarint(buf)
	if off == 0 || rank == 0 || rank > uint64(maxRank) {
		return nil, 0, fmt.Errorf("%w: rank %d", ErrBadDims, rank)
	}
	dims := make([]int, rank)
	for i := range dims {
		d, k := bitio.Uvarint(buf[off:])
		if k == 0 || d == 0 || d > maxExtent {
			return nil, 0, fmt.Errorf("%w: extent %d", ErrBadDims, d)
		}
		dims[i] = int(d)
		off += k
	}
	if err := Validate(dims, -1); err != nil {
		return nil, 0, err
	}
	return dims, off, nil
}

// Size returns the total number of elements implied by dims.
func Size(dims []int) int {
	total := 1
	for _, d := range dims {
		total *= d
	}
	return total
}

// Strides returns row-major strides for dims: strides[i] is the linear
// distance between consecutive indices along dimension i.
func Strides(dims []int) []int {
	s := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= dims[i]
	}
	return s
}

// Block describes one axis-aligned block of a blocked traversal.
type Block struct {
	Origin []int // first index along each dimension
	Extent []int // size along each dimension (clipped at the boundary)
}

// Blocks enumerates all blocks of edge length `side` covering dims, in
// row-major block order, calling fn for each. Boundary blocks are clipped.
// One Block is reused for the whole traversal, so fn must not keep b or its
// slices past its return.
func Blocks(dims []int, side int, fn func(b Block) error) error {
	if side <= 0 {
		return fmt.Errorf("grid: nonpositive block side %d", side)
	}
	rank := len(dims)
	scratch := make([]int, 4*rank)
	counts, idx := scratch[:rank], scratch[rank:2*rank]
	for i, d := range dims {
		counts[i] = (d + side - 1) / side
	}
	b := Block{Origin: scratch[2*rank : 3*rank], Extent: scratch[3*rank:]}
	for {
		for i := 0; i < rank; i++ {
			b.Origin[i] = idx[i] * side
			ext := side
			if b.Origin[i]+ext > dims[i] {
				ext = dims[i] - b.Origin[i]
			}
			b.Extent[i] = ext
		}
		if err := fn(b); err != nil {
			return err
		}
		// Odometer increment.
		i := rank - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < counts[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

// ForEach visits every point of block b over a field with the given strides,
// calling fn with the linear index. Iteration is row-major within the block.
func (b Block) ForEach(strides []int, fn func(linear int)) {
	rank := len(b.Origin)
	var buf [MaxDims]int
	idx := buf[:]
	if rank > MaxDims {
		idx = make([]int, rank)
	}
	base := 0
	for i := 0; i < rank; i++ {
		base += b.Origin[i] * strides[i]
	}
	lin := base
	for {
		fn(lin)
		i := rank - 1
		for ; i >= 0; i-- {
			idx[i]++
			lin += strides[i]
			if idx[i] < b.Extent[i] {
				break
			}
			lin -= idx[i] * strides[i]
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// Size returns the number of points in the block.
func (b Block) Size() int {
	n := 1
	for _, e := range b.Extent {
		n *= e
	}
	return n
}

// EqualDims reports whether two dimension vectors are identical.
func EqualDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
