package repro

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/metrics"
)

func testField(t *testing.T) datagen.Field {
	t.Helper()
	fields := datagen.NYX(16, 1)
	return fields[0] // dark_matter_density 16^3
}

func TestAllRelativeAlgorithmsRoundTrip(t *testing.T) {
	f := testField(t)
	rel := 1e-2
	for _, algo := range RelativeAlgorithms() {
		buf, err := Compress(f.Data, f.Dims, rel, algo, nil)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		got, err := AlgorithmOf(buf)
		if err != nil || got != algo {
			t.Fatalf("AlgorithmOf = %v, %v", got, err)
		}
		dec, dims, err := Decompress(buf)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !grid.EqualDims(dims, f.Dims) {
			t.Fatalf("%v: dims %v", algo, dims)
		}
		st, err := metrics.RelError(f.Data, dec, rel)
		if err != nil {
			t.Fatal(err)
		}
		// ZFP_P does not guarantee the bound; everyone else must.
		if algo != ZFPP && st.Max > rel {
			t.Fatalf("%v: max rel error %g > %g", algo, st.Max, rel)
		}
		if algo == SZT || algo == ZFPT || algo == FPZIP || algo == ISABELA {
			if st.ZeroPerturbed != 0 {
				t.Fatalf("%v: %d zeros perturbed", algo, st.ZeroPerturbed)
			}
		}
	}
}

func TestAbsAlgorithms(t *testing.T) {
	f := testField(t)
	bound := 0.05
	for _, algo := range []Algorithm{SZABS, ZFPACC} {
		buf, err := CompressAbs(f.Data, f.Dims, bound, algo, nil)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		dec, _, err := Decompress(buf)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		for i := range f.Data {
			if math.Abs(dec[i]-f.Data[i]) > bound {
				t.Fatalf("%v: abs error at %d", algo, i)
			}
		}
	}
}

func TestRelAlgoRejectsAbsAndViceVersa(t *testing.T) {
	f := testField(t)
	if _, err := Compress(f.Data, f.Dims, 0.01, SZABS, nil); err == nil {
		t.Fatal("SZABS accepted relative bound")
	}
	if _, err := CompressAbs(f.Data, f.Dims, 0.01, SZT, nil); err == nil {
		t.Fatal("SZT accepted absolute bound")
	}
}

func TestSZTBeatsBaselinesOnDensity(t *testing.T) {
	// The paper's headline: SZ_T achieves the best ratio on NYX density.
	fields := datagen.NYX(32, 2)
	f := fields[0]
	rel := 1e-2
	sizes := map[Algorithm]int{}
	for _, algo := range []Algorithm{SZT, SZPWR, FPZIP, ISABELA} {
		buf, err := Compress(f.Data, f.Dims, rel, algo, nil)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		sizes[algo] = len(buf)
	}
	for _, algo := range []Algorithm{SZPWR, FPZIP, ISABELA} {
		if sizes[SZT] >= sizes[algo] {
			t.Fatalf("SZ_T (%d) should beat %v (%d) on lognormal density",
				sizes[SZT], algo, sizes[algo])
		}
	}
}

func TestOptionsPlumbed(t *testing.T) {
	f := testField(t)
	// Non-default options must still round-trip within bound.
	opts := &Options{
		Base:      Base10,
		Intervals: 1024,
		BlockSide: 16,
	}
	for _, algo := range []Algorithm{SZT, SZPWR, ISABELA} {
		buf, err := Compress(f.Data, f.Dims, 0.05, algo, opts)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		dec, _, err := Decompress(buf)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		st, err := metrics.RelError(f.Data, dec, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if st.Max > 0.05 {
			t.Fatalf("%v with options: max %g", algo, st.Max)
		}
	}
}

func TestFloat32Helpers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]float32, 2000)
	for i := range data {
		data[i] = float32(math.Exp(rng.NormFloat64()))
	}
	buf, err := Compress32(data, []int{2000}, 1e-3, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress32(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] == 0 {
			continue
		}
		rel := math.Abs(float64(dec[i]-data[i])) / math.Abs(float64(data[i]))
		if rel > 1e-3+1e-6 {
			t.Fatalf("index %d: rel %g", i, rel)
		}
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, _, err := Decompress(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, _, err := Decompress([]byte{0x00, 0x01, 0x02}); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, _, err := Decompress([]byte{containerMagic, 99, 1, 2, 3}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	names := map[Algorithm]string{
		0:   "Algorithm(0)",
		SZT: "SZ_T", ZFPT: "ZFP_T", SZABS: "SZ_ABS", SZPWR: "SZ_PWR",
		ZFPACC: "ZFP_ACC", ZFPP: "ZFP_P", FPZIP: "FPZIP", ISABELA: "ISABELA",
		ZFPRATE: "ZFP_RATE", FPZIP32: "FPZIP32",
		11: "Algorithm(11)",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", byte(a), a.String(), want)
		}
	}
	// RelativeAlgorithms lists exactly the codecs table's relative rows.
	rel := map[Algorithm]bool{}
	for _, a := range RelativeAlgorithms() {
		rel[a] = true
	}
	for a := range codecs {
		if c := codecFor(Algorithm(a)); c != nil && (c.bound == boundRel) != rel[Algorithm(a)] {
			t.Errorf("%v: relative bound %v in the codecs table, listed %v by RelativeAlgorithms",
				Algorithm(a), c.bound == boundRel, rel[Algorithm(a)])
		}
	}
}

func TestZFPPBoundedFractionHigh(t *testing.T) {
	// ZFP_P should bound *most* points (Table IV shows ~99.9%) even though
	// it cannot bound all.
	fields := datagen.NYX(24, 4)
	f := fields[1] // velocity_x
	rel := 1e-2
	buf, err := Compress(f.Data, f.Dims, rel, ZFPP, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	st, err := metrics.RelError(f.Data, dec, rel)
	if err != nil {
		t.Fatal(err)
	}
	if st.BoundedFrac < 0.95 {
		t.Fatalf("ZFP_P bounded fraction %.4f too low", st.BoundedFrac)
	}
}

func TestCompressFixedRate(t *testing.T) {
	f := testField(t)
	for _, rate := range []float64{4, 8, 16} {
		buf, err := CompressFixedRate(f.Data, f.Dims, rate)
		if err != nil {
			t.Fatalf("rate %g: %v", rate, err)
		}
		algo, err := AlgorithmOf(buf)
		if err != nil || algo != ZFPRATE {
			t.Fatalf("AlgorithmOf = %v, %v", algo, err)
		}
		dec, dims, err := Decompress(buf)
		if err != nil {
			t.Fatalf("rate %g: %v", rate, err)
		}
		if !grid.EqualDims(dims, f.Dims) || len(dec) != len(f.Data) {
			t.Fatal("shape mismatch")
		}
		// Stream size tracks the requested rate (within header slack).
		wantBytes := int(rate * float64(len(f.Data)) / 8)
		if len(buf) < wantBytes || len(buf) > wantBytes*5/4+128 {
			t.Fatalf("rate %g: %d bytes, want ~%d", rate, len(buf), wantBytes)
		}
	}
	if _, err := CompressFixedRate(f.Data, f.Dims, 0.1); err == nil {
		t.Fatal("sub-1 rate accepted")
	}
}

func TestFloat32NativeFPZIP(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	data := make([]float32, 3000)
	for i := range data {
		data[i] = float32(math.Exp(rng.NormFloat64()))
	}
	rel := 1e-2
	buf, err := Compress32(data, []int{3000}, rel, FPZIP, nil)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := AlgorithmOf(buf)
	if err != nil || algo != FPZIP32 {
		t.Fatalf("AlgorithmOf = %v, %v", algo, err)
	}
	dec, dims, err := Decompress32(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 1 || dims[0] != 3000 {
		t.Fatalf("dims %v", dims)
	}
	for i := range data {
		if data[i] == 0 {
			continue
		}
		r := math.Abs(float64(dec[i]-data[i])) / math.Abs(float64(data[i]))
		if r > rel {
			t.Fatalf("index %d: rel %g", i, r)
		}
	}
	// The float64 decoder must also handle the stream (widened).
	wide, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if float32(wide[7]) != dec[7] {
		t.Fatal("widened decode disagrees")
	}
	// Native path should beat the widening path in size.
	szt, err := Compress32(data, []int{3000}, rel, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = szt // both valid; no strict ordering asserted between algorithms
}
