package fpzip

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func checkRel(t *testing.T, orig, dec []float64, rel float64) {
	t.Helper()
	for i := range orig {
		if orig[i] == 0 {
			if dec[i] != 0 {
				t.Fatalf("index %d: zero became %g", i, dec[i])
			}
			continue
		}
		r := math.Abs(dec[i]-orig[i]) / math.Abs(orig[i])
		if r > rel {
			t.Fatalf("index %d: rel error %g > %g (orig %g dec %g)", i, r, rel, orig[i], dec[i])
		}
	}
}

func TestPrecisionForRelBound(t *testing.T) {
	cases := map[float64]int{
		1e-1: 12 + 4,  // 2^-4 = 0.0625 <= 0.1
		1e-2: 12 + 7,  // 2^-7 ≈ 0.0078
		1e-3: 12 + 10, // 2^-10 ≈ 0.00098
	}
	for rel, want := range cases {
		p, err := PrecisionForRelBound(rel)
		if err != nil {
			t.Fatal(err)
		}
		if p != want {
			t.Errorf("PrecisionForRelBound(%g) = %d, want %d", rel, p, want)
		}
		if MaxRelError(p) > rel {
			t.Errorf("MaxRelError(%d) = %g > %g", p, MaxRelError(p), rel)
		}
	}
	if _, err := PrecisionForRelBound(0); err == nil {
		t.Error("rel=0 accepted")
	}
	if _, err := PrecisionForRelBound(1); err == nil {
		t.Error("rel=1 accepted")
	}
}

func TestRoundTripRelBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 5000)
	for i := range data {
		data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-5} {
		p, err := PrecisionForRelBound(rel)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := Compress(data, []int{len(data)}, p)
		if err != nil {
			t.Fatal(err)
		}
		dec, dims, err := Decompress(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !grid.EqualDims(dims, []int{len(data)}) {
			t.Fatalf("dims = %v", dims)
		}
		checkRel(t, data, dec, rel)
	}
}

func TestRoundTrip2D3D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mk := func(n int) []float64 {
		d := make([]float64, n)
		v := 100.0
		for i := range d {
			v *= 1 + rng.NormFloat64()*0.01
			d[i] = v
		}
		return d
	}
	for _, dims := range [][]int{{40, 50}, {12, 15, 18}} {
		data := mk(grid.Size(dims))
		buf, err := Compress(data, dims, 22)
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := Decompress(buf)
		if err != nil {
			t.Fatal(err)
		}
		checkRel(t, data, dec, MaxRelError(22))
	}
}

func TestLosslessAtP64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]float64, 2000)
	for i := range data {
		data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	data[0], data[1] = 0, math.Copysign(0, -1)
	buf, err := Compress(data, []int{len(data)}, 64)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Float64bits(dec[i]) != math.Float64bits(data[i]) {
			t.Fatalf("index %d: lossless mismatch %x vs %x", i,
				math.Float64bits(dec[i]), math.Float64bits(data[i]))
		}
	}
}

func TestZerosPreserved(t *testing.T) {
	data := []float64{0, 1, 0, 2, 0, 3, 0, 0}
	buf, err := Compress(data, []int{8}, 20)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if v == 0 && dec[i] != 0 {
			t.Fatalf("index %d: zero perturbed to %g", i, dec[i])
		}
	}
}

func TestCompressionOnSmoothData(t *testing.T) {
	n := 10000
	data := make([]float64, n)
	for i := range data {
		data[i] = 1000 + math.Sin(float64(i)*0.01)*100
	}
	buf, err := Compress(data, []int{n}, 22)
	if err != nil {
		t.Fatal(err)
	}
	cr := float64(n*8) / float64(len(buf))
	if cr < 5 {
		t.Fatalf("compression ratio %.2f too low for smooth data", cr)
	}
}

func TestPiecewiseRatioBehaviour(t *testing.T) {
	// FPZIP's ratio only improves in steps of whole bits — verify that p
	// and p-1 give different sizes, reproducing the "piecewise" feature the
	// paper mentions.
	rng := rand.New(rand.NewSource(4))
	data := make([]float64, 8192)
	for i := range data {
		data[i] = 50 + rng.NormFloat64()
	}
	b20, err := Compress(data, []int{len(data)}, 20)
	if err != nil {
		t.Fatal(err)
	}
	b28, err := Compress(data, []int{len(data)}, 28)
	if err != nil {
		t.Fatal(err)
	}
	if len(b20) >= len(b28) {
		t.Fatalf("lower precision should compress better: %d vs %d", len(b20), len(b28))
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := Compress([]float64{1}, []int{1}, 1); err == nil {
		t.Fatal("p=1 accepted")
	}
	if _, err := Compress([]float64{1}, []int{1}, 65); err == nil {
		t.Fatal("p=65 accepted")
	}
	if _, err := Compress([]float64{1, 2}, []int{3}, 20); err == nil {
		t.Fatal("dims mismatch accepted")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]float64, 500)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	buf, err := Compress(data, []int{500}, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 5, 10, len(buf) / 2} {
		if _, _, err := Decompress(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), buf...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		_, _, _ = Decompress(mut) // must not panic
	}
}

func TestQuickRelBoundInvariant(t *testing.T) {
	f := func(seed int64, pSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(400) + 1
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(10)-5))
		}
		p := 14 + int(pSel%40)
		buf, err := Compress(data, []int{n}, p)
		if err != nil {
			return false
		}
		dec, _, err := Decompress(buf)
		if err != nil || len(dec) != n {
			return false
		}
		rel := MaxRelError(p)
		for i := range data {
			if data[i] == 0 {
				if dec[i] != 0 {
					return false
				}
				continue
			}
			if math.Abs(dec[i]-data[i])/math.Abs(data[i]) > rel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	data := make([]float64, 1<<16)
	for i := range data {
		data[i] = 100 + rng.NormFloat64()
	}
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data, []int{len(data)}, 22); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRoundTrip4D(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dims := []int{3, 5, 6, 7}
	data := make([]float64, 3*5*6*7)
	v := 100.0
	for i := range data {
		v *= 1 + rng.NormFloat64()*0.01
		data[i] = v
	}
	buf, err := Compress(data, dims, 22)
	if err != nil {
		t.Fatal(err)
	}
	dec, gotDims, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !grid.EqualDims(gotDims, dims) {
		t.Fatalf("dims %v", gotDims)
	}
	checkRel(t, data, dec, MaxRelError(22))
}

// TestNonFiniteSurvive sweeps every precision a relative bound can
// select in both layouts: NaN of any sign and payload must decode as a
// NaN, ±Inf exactly, and finite values within the precision's bound.
// Flooring the ordered integers used to carry a NaN with a small payload
// into +Inf's bucket and −Inf into the negative NaNs below it.
func TestNonFiniteSurvive(t *testing.T) {
	nans := []uint64{0x7FF0000000000001, 0x7FF8000000000000, 0x7FFFFFFFFFFFFFFF, 0xFFF0000000000001, 0xFFF8000000000000}
	data := []float64{1, math.Inf(-1), -2.5, math.Inf(1), 3e-300, -1e300, 0}
	for _, u := range nans {
		data = append(data, math.Float64frombits(u), 7)
	}
	check := func(t *testing.T, orig, dec float64, rel float64) {
		t.Helper()
		switch {
		case math.IsNaN(orig):
			if !math.IsNaN(dec) {
				t.Fatalf("NaN %x decoded to %v", math.Float64bits(orig), dec)
			}
		case math.IsInf(orig, 0) || orig == 0:
			if math.Float64bits(dec) != math.Float64bits(orig) {
				t.Fatalf("%v decoded to %v", orig, dec)
			}
		case math.Abs(dec-orig) > rel*math.Abs(orig):
			t.Fatalf("%v decoded to %v, past %g", orig, dec, rel)
		}
	}
	lo, _ := PrecisionForRelBound(0.99)
	for p := lo; p <= 64; p++ {
		buf, err := Compress(data, []int{len(data)}, p)
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := Decompress(buf)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i := range data {
			check(t, data[i], dec[i], MaxRelError(p))
		}
	}
	data32 := make([]float32, len(data))
	for i, v := range data {
		data32[i] = float32(v)
	}
	data32 = append(data32, math.Float32frombits(0x7F800001), math.Float32frombits(0xFF800001))
	lo, _ = PrecisionForRelBound32(0.99)
	for p := lo; p <= 32; p++ {
		buf, err := Compress32(data32, []int{len(data32)}, p)
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := Decompress32(buf)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i := range data32 {
			check(t, float64(data32[i]), float64(dec[i]), MaxRelError32(p))
		}
	}
}
