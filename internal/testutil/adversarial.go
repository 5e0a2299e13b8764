package testutil

// Adversarial field generation and the point-wise-relative-bound
// checker behind the property-based harness (pwr_property_test.go at
// the repository root): deterministic seeded fields engineered to
// stress Theorem 2's guarantee — sign flips, exact zeros, constant
// blocks, subnormals, NaN and ±Inf, and magnitude skews spanning 12+
// orders — plus CheckPWR, which asserts the bound element by element.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/floatbits"
)

// SameFloat reports bit-identity of two float64s (NaN-safe, signed-zero
// aware) — the comparison for "element-wise identical" assertions.
func SameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// AdversarialField is one generated stress case.
type AdversarialField struct {
	Name string
	Dims []int
	Data []float64
	// Extreme marks fields (e.g. subnormal-heavy) a compressor may
	// legitimately refuse with an error instead of compressing; when it
	// does compress, the bound must still hold on checkable points.
	Extreme bool
}

// Size returns the element count.
func (f *AdversarialField) Size() int { return len(f.Data) }

// AdversarialFields returns the deterministic stress suite for the
// given seed: every run with the same seed yields bit-identical data.
func AdversarialFields(seed int64) []AdversarialField {
	rng := rand.New(rand.NewSource(seed))
	var out []AdversarialField

	// 1D sign flips: smooth magnitude, alternating sign — the log
	// transform must handle the sign bitmap, not fold signs together.
	{
		data := make([]float64, 512)
		for i := range data {
			mag := 10 + 5*math.Sin(float64(i)/7)
			if i%2 == 1 {
				mag = -mag
			}
			data[i] = mag
		}
		out = append(out, AdversarialField{Name: "signflip-1d", Dims: []int{512}, Data: data})
	}

	// 1D zeros and constant blocks: runs of exact zeros (which must
	// decode to exact zeros for the zero-preserving algorithms) between
	// constant plateaus and jittered ramps.
	{
		data := make([]float64, 600)
		i := 0
		for i < len(data) {
			run := 20 + rng.Intn(30)
			kind := rng.Intn(3)
			level := (rng.Float64() - 0.5) * 200
			for j := 0; j < run && i < len(data); j, i = j+1, i+1 {
				switch kind {
				case 0:
					data[i] = 0
				case 1:
					data[i] = level
				default:
					data[i] = level + float64(j)*0.3 + rng.Float64()*0.01
				}
			}
		}
		out = append(out, AdversarialField{Name: "zeros-blocks-1d", Dims: []int{600}, Data: data})
	}

	// 2D magnitude skew: 13 orders of magnitude across the field, the
	// regime where a single value-range absolute bound collapses and
	// only a point-wise relative bound is meaningful (Section II).
	{
		const ny, nx = 24, 32
		data := make([]float64, ny*nx)
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				frac := float64(y*nx+x) / float64(ny*nx-1)
				exp := -6.5 + 13*frac // 1e-6.5 .. 1e+6.5
				v := math.Pow(10, exp) * (1 + 0.4*rng.Float64())
				if rng.Intn(5) == 0 {
					v = -v
				}
				data[y*nx+x] = v
			}
		}
		out = append(out, AdversarialField{Name: "magnitude-skew-2d", Dims: []int{24, 32}, Data: data})
	}

	// 3D mixed: zeros, sign flips and a 6-order skew together.
	{
		const nz, ny, nx = 8, 10, 12
		data := make([]float64, nz*ny*nx)
		for i := range data {
			switch rng.Intn(6) {
			case 0:
				data[i] = 0
			case 1:
				data[i] = -math.Pow(10, -3+6*rng.Float64())
			default:
				data[i] = math.Pow(10, -3+6*rng.Float64())
			}
		}
		out = append(out, AdversarialField{Name: "mixed-3d", Dims: []int{8, 10, 12}, Data: data})
	}

	// Tiny normals: values down at 1e-305..1e-290, just above the
	// subnormal range — the smallest magnitudes for which a relative
	// bound is representable with full mantissa precision.
	{
		data := make([]float64, 256)
		for i := range data {
			data[i] = math.Pow(10, -305+15*rng.Float64())
			if i%3 == 0 {
				data[i] = -data[i]
			}
		}
		out = append(out, AdversarialField{Name: "tiny-normal-1d", Dims: []int{256}, Data: data})
	}

	// Subnormals: below 2^-1022 the float64 quantum is absolute, so a
	// point-wise relative bound tighter than the local ULP spacing is
	// unsatisfiable in principle; compressors may refuse, and CheckPWR
	// callers skip subnormal originals (SkipSubnormals).
	{
		data := make([]float64, 192)
		for i := range data {
			switch i % 4 {
			case 0:
				data[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
			case 1:
				data[i] = -math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
			default:
				data[i] = math.Pow(10, -2+4*rng.Float64())
			}
		}
		out = append(out, AdversarialField{Name: "subnormal-1d", Dims: []int{192}, Data: data, Extreme: true})
	}

	// Constant field: zero entropy, nonzero level.
	{
		data := make([]float64, 128)
		for i := range data {
			data[i] = 42.125
		}
		out = append(out, AdversarialField{Name: "constant-1d", Dims: []int{128}, Data: data})
	}

	// Non-finite values: NaN (of both signs, some with tiny payloads)
	// and ±Inf among signed values must decode as NaN and the exact
	// infinity. ZFP's precision mode refuses non-finite input.
	{
		const ny, nx = 12, 16
		specials := []float64{
			math.NaN(), math.Inf(1), math.Inf(-1),
			math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF0000000000001),
		}
		data := make([]float64, ny*nx)
		for i := range data {
			data[i] = (1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(7)-3))
			if rng.Intn(3) == 0 {
				data[i] = -data[i]
			}
			if i%7 == 3 {
				data[i] = specials[(i/7)%len(specials)]
			}
		}
		out = append(out, AdversarialField{Name: "nonfinite-2d", Dims: []int{ny, nx}, Data: data, Extreme: true})
	}

	return out
}

// PWRSpec parameterizes CheckPWRSpec for algorithm-specific guarantees.
type PWRSpec struct {
	// RelBound is the point-wise relative error bound to assert.
	RelBound float64
	// PreserveZeros requires exact zeros to decode to exact zeros
	// (Table IV's "*" column: SZ_T, ZFP_T, FPZIP and ISABELA hold it).
	PreserveZeros bool
	// SkipSubnormals skips points whose original is subnormal, where
	// the float64 quantum makes tight relative bounds unsatisfiable.
	SkipSubnormals bool
	// MinBoundedFrac, when positive, replaces the hard per-element
	// assertion with a bounded-fraction one (ZFP_P's documented
	// deficiency: it does not guarantee the bound).
	MinBoundedFrac float64
	// MaxReport caps the number of per-element failures reported
	// before the check aborts (default 5).
	MaxReport int
}

// CheckPWR asserts the strict point-wise relative guarantee of
// Theorem 2 on a reconstruction: every finite nonzero original is
// reproduced within relBound, exact zeros decode to exact zeros, and
// NaN/Inf survive.
func CheckPWR(t testing.TB, orig, dec []float64, relBound float64) {
	t.Helper()
	CheckPWRSpec(t, orig, dec, PWRSpec{RelBound: relBound, PreserveZeros: true})
}

// CheckPWRSpec asserts the point-wise relative guarantee under the
// given spec.
func CheckPWRSpec(t testing.TB, orig, dec []float64, spec PWRSpec) {
	t.Helper()
	if len(orig) != len(dec) {
		t.Errorf("pwr: length mismatch: orig %d dec %d", len(orig), len(dec))
		return
	}
	maxReport := spec.MaxReport
	if maxReport <= 0 {
		maxReport = 5
	}
	reported := 0
	failf := func(format string, args ...interface{}) bool {
		t.Helper()
		t.Errorf(format, args...)
		reported++
		return reported < maxReport
	}
	checked, bounded := 0, 0
	for i := range orig {
		o, d := orig[i], dec[i]
		switch {
		case math.IsNaN(o):
			if !math.IsNaN(d) {
				if !failf("pwr: NaN at %d decoded to %g", i, d) {
					return
				}
			}
		case math.IsInf(o, 0):
			if !SameFloat(o, d) {
				if !failf("pwr: Inf at %d decoded to %g", i, d) {
					return
				}
			}
		case floatbits.IsZero(o):
			if spec.PreserveZeros && !floatbits.IsZero(d) {
				if !failf("pwr: zero at %d perturbed to %g", i, d) {
					return
				}
			}
		case spec.SkipSubnormals && math.Abs(o) < 2.2250738585072014e-308: // < 2^-1022
			continue
		default:
			checked++
			r := math.Abs(d-o) / math.Abs(o)
			within := r <= spec.RelBound*(1+1e-9)
			if within {
				bounded++
			}
			if spec.MinBoundedFrac > 0 {
				continue // judged in aggregate below
			}
			if !within {
				if !failf("pwr: bound %g violated at %d: orig %g dec %g (rel %g)",
					spec.RelBound, i, o, d, r) {
					return
				}
			}
		}
	}
	if spec.MinBoundedFrac > 0 && checked > 0 {
		frac := float64(bounded) / float64(checked)
		if frac < spec.MinBoundedFrac {
			t.Errorf("pwr: only %.3f of %d points within %g (want >= %.2f)",
				frac, checked, spec.RelBound, spec.MinBoundedFrac)
		}
	}
}
