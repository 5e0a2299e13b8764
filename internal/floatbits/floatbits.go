// Package floatbits supplies bit-level IEEE-754 utilities used across the
// compressors: the order-preserving mapping between float64 and int64 that
// FPZIP predicts in, error-bounded mantissa truncation for SZ's
// unpredictable-value encoder, and exponent helpers for ZFP's block
// floating-point alignment.
package floatbits

import (
	"math"
)

// IsZero reports whether v is exactly ±0. It is the named form of the
// exact zero test the zero-sentinel logic depends on: a value is either
// encoded as a sentinel or transformed, never approximately compared.
func IsZero(v float64) bool {
	return v == 0 // exact zero test is this helper's contract
}

// Equal reports whether a and b are exactly the same float64 value
// (IEEE-754 ==, so NaN != NaN and -0 == +0). Use it where bit-for-bit
// agreement after a round trip is the requirement.
func Equal(a, b float64) bool {
	return a == b // exact equality is this helper's contract
}

// ToOrderedInt maps a float64 to an int64 such that the integer order
// matches the floating-point order (including -0 < +0 treated as equal
// neighbors and negative values mapping below positives). NaNs map to the
// extremes of their sign and are order-stable but carry no semantics.
func ToOrderedInt(f float64) int64 {
	//lint:allow intnarrow intentional reinterpretation: the IEEE sign bit must land in int64's sign position
	i := int64(math.Float64bits(f))
	if i < 0 {
		// Negative floats compare in reverse bit order: flip the non-sign
		// bits so that more-negative values map to more-negative integers.
		i ^= 0x7fffffffffffffff
	}
	return i
}

// FromOrderedInt inverts ToOrderedInt.
func FromOrderedInt(v int64) float64 {
	if v < 0 {
		v ^= 0x7fffffffffffffff
	}
	return math.Float64frombits(uint64(v))
}

// Exponent returns the unbiased base-2 exponent e such that
// 2^e <= |f| < 2^(e+1) for normal f. For zero it returns MinExp; denormals
// return their true exponent computed from the leading mantissa bit.
func Exponent(f float64) int {
	if IsZero(f) {
		return MinExp
	}
	e := math.Ilogb(f)
	return e
}

// MinExp is a sentinel exponent below every representable float64 exponent
// (denormals reach -1074).
const MinExp = -1100

// MaxExponent returns the largest Exponent(v) over data, or MinExp when all
// values are zero (or data is empty).
func MaxExponent(data []float64) int {
	maxE := MinExp
	maxAbs := 0.0
	for _, v := range data {
		a := math.Abs(v)
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs > 0 {
		maxE = math.Ilogb(maxAbs)
	}
	return maxE
}

// TruncateToError clears low-order mantissa bits of f such that the
// introduced error is at most tol, returning the truncated value and the
// number of significant leading bytes of its big-endian representation
// (trailing zero bytes can be dropped from storage).
//
// This mirrors SZ's "binary representation analysis" storage of
// unpredictable values: the value is stored with only as much mantissa as
// the absolute error bound requires.
func TruncateToError(f, tol float64) (float64, int) {
	if tol <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return f, 8
	}
	e := Exponent(f)
	if IsZero(f) {
		return 0, 0
	}
	// Mantissa bit i (from the top, 0-based) has weight 2^(e-1-i).
	// Keeping bits with weight >= tol/2 bounds the truncation error by tol.
	te := math.Ilogb(tol)
	keep := e - te + 1 // number of mantissa bits to keep (may be <=0)
	if keep <= 0 {
		// The whole value is below the tolerance: snap to zero is fine but
		// SZ stores the leading exponent anyway; keep sign+exponent only.
		keep = 0
	}
	if keep >= 52 {
		return f, 8
	}
	bits := math.Float64bits(f)
	mask := ^uint64(0) << (52 - uint(keep))
	tb := bits & mask
	tf := math.Float64frombits(tb)
	// Count significant bytes: sign+exponent occupy the top 12 bits, so at
	// least 2 bytes are always meaningful.
	nbytes := 8
	for nbytes > 2 && tb&0xff == 0 {
		tb >>= 8
		nbytes--
	}
	return tf, nbytes
}

// Log2Abs returns log2(|x|). It is the forward mapping of the paper's
// transformation scheme (base 2 fixed per Section IV/VI-B). x must be
// nonzero and finite.
func Log2Abs(x float64) float64 {
	return math.Log2(math.Abs(x))
}

// Exp2 is the inverse mapping 2^x.
func Exp2(x float64) float64 {
	return math.Exp2(x)
}

// MachineEpsilon is the double-precision unit roundoff used in Lemma 2's
// bound adjustment (2^-52).
const MachineEpsilon = 0x1p-52

// NextAfterZero reports whether v is so small that exp2 of its logarithm
// would underflow to zero; used in zero-sentinel handling.
func IsDenormalOrZero(v float64) bool {
	return math.Abs(v) < 0x1p-1022
}
