package fpzip

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func checkRel32(t *testing.T, orig, dec []float32, rel float64) {
	t.Helper()
	for i := range orig {
		if orig[i] == 0 {
			if dec[i] != 0 {
				t.Fatalf("index %d: zero became %g", i, dec[i])
			}
			continue
		}
		r := math.Abs(float64(dec[i]-orig[i])) / math.Abs(float64(orig[i]))
		if r > rel {
			t.Fatalf("index %d: rel error %g > %g (orig %g dec %g)", i, r, rel, orig[i], dec[i])
		}
	}
}

func TestPrecision32MatchesPaperSettings(t *testing.T) {
	// The paper's Table IV column "settings" for FPZIP on float32 data.
	cases := map[float64]int{1e-1: 13, 1e-2: 16, 1e-3: 19}
	for rel, want := range cases {
		p, err := PrecisionForRelBound32(rel)
		if err != nil {
			t.Fatal(err)
		}
		if p != want {
			t.Errorf("PrecisionForRelBound32(%g) = %d, want %d (paper)", rel, p, want)
		}
		if MaxRelError32(p) > rel {
			t.Errorf("MaxRelError32(%d) = %g > %g", p, MaxRelError32(p), rel)
		}
	}
}

func TestOrderedInt32Monotone(t *testing.T) {
	ordered := func(v float32) int64 { return float32Layout.truncate(uint64(math.Float32bits(v)), 32) }
	vals := []float32{float32(math.Inf(-1)), -1e30, -1, -1e-30, 0, 1e-30, 1, 1e30, float32(math.Inf(1))}
	for i := 1; i < len(vals); i++ {
		if ordered(vals[i-1]) >= ordered(vals[i]) {
			t.Fatalf("order violated at %v < %v", vals[i-1], vals[i])
		}
	}
	for _, v := range vals {
		if u, ok := float32Layout.restore(ordered(v), 32); !ok || math.Float32frombits(uint32(u)) != v {
			t.Fatalf("round trip %v", v)
		}
	}
}

func TestRoundTrip32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, 5000)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(10)-5)))
	}
	for _, rel := range []float64{1e-1, 1e-2, 1e-3} {
		p, err := PrecisionForRelBound32(rel)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := Compress32(data, []int{len(data)}, p)
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := Decompress32(buf)
		if err != nil {
			t.Fatal(err)
		}
		checkRel32(t, data, dec, rel)
	}
}

func TestLossless32(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]float32, 2000)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	data[0] = 0
	buf, err := Compress32(data, []int{2000}, 32)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress32(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Float32bits(dec[i]) != math.Float32bits(data[i]) {
			t.Fatalf("index %d: lossless mismatch", i)
		}
	}
}

func TestRoundTrip32MultiDim(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := []int{10, 12, 14}
	data := make([]float32, 10*12*14)
	v := float32(100)
	for i := range data {
		v *= 1 + float32(rng.NormFloat64())*0.01
		data[i] = v
	}
	buf, err := Compress32(data, dims, 16)
	if err != nil {
		t.Fatal(err)
	}
	dec, gotDims, err := Decompress32(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotDims) != 3 || gotDims[0] != 10 {
		t.Fatalf("dims %v", gotDims)
	}
	checkRel32(t, data, dec, MaxRelError32(16))
}

func TestCompress32SmallerThan64Path(t *testing.T) {
	// At the same guaranteed bound, the native float32 path should emit
	// fewer bytes than widening to float64 (fewer mantissa bits to code).
	rng := rand.New(rand.NewSource(4))
	n := 8192
	d32 := make([]float32, n)
	d64 := make([]float64, n)
	for i := range d32 {
		d32[i] = float32(50 + rng.NormFloat64())
		d64[i] = float64(d32[i])
	}
	rel := 1e-3
	p32, _ := PrecisionForRelBound32(rel)
	p64, _ := PrecisionForRelBound(rel)
	b32, err := Compress32(d32, []int{n}, p32)
	if err != nil {
		t.Fatal(err)
	}
	b64, err := Compress(d64, []int{n}, p64)
	if err != nil {
		t.Fatal(err)
	}
	if len(b32) >= len(b64) {
		t.Fatalf("native float32 path (%d) not smaller than widened (%d)", len(b32), len(b64))
	}
}

func TestBadInputs32(t *testing.T) {
	if _, err := Compress32([]float32{1}, []int{1}, 1); err == nil {
		t.Fatal("p=1 accepted")
	}
	if _, err := Compress32([]float32{1}, []int{1}, 33); err == nil {
		t.Fatal("p=33 accepted")
	}
	if _, err := Compress32([]float32{1, 2}, []int{3}, 16); err == nil {
		t.Fatal("dims mismatch accepted")
	}
}

func TestDecompress32Corrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]float32, 500)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	buf, err := Compress32(data, []int{500}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 5, len(buf) / 2} {
		if _, _, err := Decompress32(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := 0; i < 150; i++ {
		mut := append([]byte(nil), buf...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		_, _, _ = Decompress32(mut) // must not panic
	}
}

func TestQuick32RelBound(t *testing.T) {
	f := func(seed int64, pSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(400) + 1
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4)))
		}
		p := 11 + int(pSel%21)
		buf, err := Compress32(data, []int{n}, p)
		if err != nil {
			return false
		}
		dec, _, err := Decompress32(buf)
		if err != nil || len(dec) != n {
			return false
		}
		rel := MaxRelError32(p)
		for i := range data {
			if data[i] == 0 {
				if dec[i] != 0 {
					return false
				}
				continue
			}
			if math.Abs(float64(dec[i]-data[i]))/math.Abs(float64(data[i])) > rel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
