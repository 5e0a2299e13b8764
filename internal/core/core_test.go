package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/sz"
)

// lognormalField mimics the NYX dark-matter-density distribution: heavy
// tail, wide dynamic range, strictly positive.
func lognormalField(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64()*2 - 1)
	}
	return data
}

// velocityField mimics HACC velocities: signed, large magnitudes, smooth
// with noise.
func velocityField(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	for i := range data {
		data[i] = 3000*math.Sin(float64(i)*0.001) + rng.NormFloat64()*500
	}
	return data
}

func checkRel(t *testing.T, orig, dec []float64, rel float64) float64 {
	t.Helper()
	maxRel := 0.0
	for i := range orig {
		o := orig[i]
		if math.IsNaN(o) {
			if !math.IsNaN(dec[i]) {
				t.Fatalf("index %d: NaN not preserved", i)
			}
			continue
		}
		if math.IsInf(o, 0) {
			if dec[i] != o {
				t.Fatalf("index %d: Inf not preserved", i)
			}
			continue
		}
		if o == 0 {
			if dec[i] != 0 {
				t.Fatalf("index %d: zero perturbed to %g", i, dec[i])
			}
			continue
		}
		r := math.Abs(dec[i]-o) / math.Abs(o)
		if r > rel {
			t.Fatalf("index %d: rel err %g > %g (orig %g dec %g)", i, r, rel, o, dec[i])
		}
		if r > maxRel {
			maxRel = r
		}
	}
	return maxRel
}

func TestForwardInverseIdentityNoCompression(t *testing.T) {
	// Forward→Inverse without a lossy backend must respect the bound
	// trivially (only round-off), for every base.
	data := velocityField(2000, 1)
	data[0], data[10], data[100] = 0, 0, 0
	for _, base := range []Base{Base2, BaseE, Base10} {
		tr, err := Forward(data, 1e-3, &Options{Base: base})
		if err != nil {
			t.Fatalf("base %v: %v", base, err)
		}
		hdr := tr.AppendHeader(nil)
		si, used, err := ParseHeader(hdr)
		if err != nil {
			t.Fatalf("base %v: %v", base, err)
		}
		if used != len(hdr) {
			t.Fatalf("base %v: consumed %d of %d", base, used, len(hdr))
		}
		out, err := si.Inverse(tr.Log, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkRel(t, data, out, 1e-9) // round-off only
	}
}

func TestCompressSZT(t *testing.T) {
	data := lognormalField(4096, 2)
	dims := []int{16, 16, 16}
	for _, rel := range []float64{1e-4, 1e-3, 1e-2, 1e-1} {
		buf, err := Compress(data, dims, rel, SZBackend{}, nil)
		if err != nil {
			t.Fatalf("rel %g: %v", rel, err)
		}
		dec, gotDims, err := Decompress(buf)
		if err != nil {
			t.Fatalf("rel %g: %v", rel, err)
		}
		if !grid.EqualDims(gotDims, dims) {
			t.Fatalf("dims %v", gotDims)
		}
		checkRel(t, data, dec, rel)
	}
}

func TestCompressZFPT(t *testing.T) {
	data := lognormalField(4096, 3)
	dims := []int{16, 16, 16}
	for _, rel := range []float64{1e-3, 1e-2, 1e-1} {
		buf, err := Compress(data, dims, rel, ZFPBackend{}, nil)
		if err != nil {
			t.Fatalf("rel %g: %v", rel, err)
		}
		dec, _, err := Decompress(buf)
		if err != nil {
			t.Fatalf("rel %g: %v", rel, err)
		}
		checkRel(t, data, dec, rel)
	}
}

func TestMixedSignsWithZeros(t *testing.T) {
	data := velocityField(5000, 4)
	for i := 0; i < len(data); i += 97 {
		data[i] = 0
	}
	rel := 1e-2
	buf, err := Compress(data, []int{len(data)}, rel, SZBackend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkRel(t, data, dec, rel)
}

func TestNaNInfPreserved(t *testing.T) {
	data := velocityField(256, 5)
	data[3] = math.NaN()
	data[77] = math.Inf(1)
	data[200] = math.Inf(-1)
	buf, err := Compress(data, []int{256}, 1e-2, SZBackend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkRel(t, data, dec, 1e-2)
}

func TestAllBasesRespectBound(t *testing.T) {
	data := lognormalField(2048, 6)
	for _, base := range []Base{Base2, BaseE, Base10} {
		for _, backend := range []Backend{SZBackend{}, ZFPBackend{}} {
			buf, err := Compress(data, []int{2048}, 1e-3, backend, &Options{Base: base})
			if err != nil {
				t.Fatalf("base %v backend %s: %v", base, backend.Name(), err)
			}
			dec, _, err := Decompress(buf)
			if err != nil {
				t.Fatalf("base %v backend %s: %v", base, backend.Name(), err)
			}
			checkRel(t, data, dec, 1e-3)
		}
	}
}

func TestBaseSelectionSimilarRatio(t *testing.T) {
	// Lemma 3: different bases must give nearly identical SZ compression
	// ratios (the paper measures 1–3% variation).
	data := lognormalField(32768, 7)
	sizes := map[Base]int{}
	for _, base := range []Base{Base2, BaseE, Base10} {
		buf, err := Compress(data, []int{32768}, 1e-2, SZBackend{}, &Options{Base: base})
		if err != nil {
			t.Fatal(err)
		}
		sizes[base] = len(buf)
	}
	ref := float64(sizes[Base2])
	for base, s := range sizes {
		if dev := math.Abs(float64(s)-ref) / ref; dev > 0.10 {
			t.Fatalf("base %v size deviates %.1f%% from base 2 (%d vs %d)",
				base, dev*100, s, sizes[Base2])
		}
	}
}

func TestTransformBeatsBlockwisePWROnSpiky(t *testing.T) {
	// The headline result: on data with spiky local ranges, SZ_T (transform)
	// compresses much better than SZ_PWR (block minimum design).
	rng := rand.New(rand.NewSource(8))
	n := 32768
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64() * 3) // very wide dynamic range
	}
	rel := 1e-2
	szT, err := Compress(data, []int{n}, rel, SZBackend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Blockwise baseline from the sz package.
	szPWR, err := sz.CompressPWR(data, []int{n}, rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(szT) >= len(szPWR) {
		t.Fatalf("SZ_T (%d bytes) should beat SZ_PWR (%d bytes) on spiky data",
			len(szT), len(szPWR))
	}
}

func TestRoundoffGuardAblation(t *testing.T) {
	// With the guard disabled the bound can only be exceeded by round-off
	// scale amounts; with it enabled the bound must hold exactly.
	data := make([]float64, 1000)
	rng := rand.New(rand.NewSource(9))
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64()*50) * 1e-30 // extreme log range
	}
	rel := 1e-4
	buf, err := Compress(data, []int{1000}, rel, SZBackend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkRel(t, data, dec, rel)

	// Ablation: must still round-trip (bound may be grazed, not smashed).
	buf2, err := Compress(data, []int{1000}, rel, SZBackend{}, &Options{DisableRoundoffGuard: true})
	if err != nil {
		t.Fatal(err)
	}
	dec2, _, err := Decompress(buf2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		r := math.Abs(dec2[i]-data[i]) / math.Abs(data[i])
		if r > rel*1.001 {
			t.Fatalf("ablation: error %g catastrophically exceeds bound", r)
		}
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := Compress([]float64{1}, []int{1}, 0, SZBackend{}, nil); err == nil {
		t.Fatal("rel=0 accepted")
	}
	if _, err := Compress([]float64{1}, []int{1}, 1, SZBackend{}, nil); err == nil {
		t.Fatal("rel=1 accepted")
	}
	if _, err := Compress([]float64{1, 2}, []int{3}, 0.1, SZBackend{}, nil); err == nil {
		t.Fatal("dims mismatch accepted")
	}
	if _, err := Forward([]float64{1}, math.NaN(), nil); err == nil {
		t.Fatal("NaN bound accepted")
	}
	// The header records only bases 2, e and 10, so Compress must refuse
	// any other rather than write a container Decompress calls corrupt.
	if _, err := Compress([]float64{1, 2}, []int{2}, 0.1, SZBackend{}, &Options{Base: 7}); err == nil {
		t.Fatal("base 7 accepted")
	}
}

// unnamedBackend is SZ under a name Decompress does not know.
type unnamedBackend struct{ SZBackend }

func (unnamedBackend) Name() string { return "unnamed" }

func TestDecompressUnknownBackend(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	buf, err := Compress(data, []int{4}, 0.1, unnamedBackend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err = Decompress(buf); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("unknown backend: err = %v, want ErrUnknownBackend", err)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	data := velocityField(512, 10)
	buf, err := Compress(data, []int{512}, 1e-2, SZBackend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 6, 20, len(buf) / 2} {
		if _, _, err := Decompress(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), buf...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		_, _, _ = Decompress(mut) // must not panic
	}
}

func TestQuickPWRBoundInvariantSZT(t *testing.T) {
	f := func(seed int64, relSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(800) + 1
		data := make([]float64, n)
		for i := range data {
			switch rng.Intn(10) {
			case 0:
				data[i] = 0
			case 1:
				data[i] = -math.Exp(rng.NormFloat64() * 5)
			default:
				data[i] = math.Exp(rng.NormFloat64() * 5)
			}
		}
		rel := math.Pow(10, -float64(relSel%4)-1)
		buf, err := Compress(data, []int{n}, rel, SZBackend{}, nil)
		if err != nil {
			return false
		}
		dec, _, err := Decompress(buf)
		if err != nil || len(dec) != n {
			return false
		}
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSentinelGeometry(t *testing.T) {
	for _, base := range []Base{Base2, BaseE, Base10} {
		s := base.sentinelValue()
		thr := base.zeroThreshold()
		minReal := -1074.0 / base.log2of()
		if !(s < thr && thr < minReal) {
			t.Fatalf("base %v: sentinel %g, threshold %g, min real log %g out of order",
				base, s, thr, minReal)
		}
		// Sentinel ± any admissible bound stays below the threshold.
		maxBound := base.log(2)
		if s+maxBound >= thr {
			t.Fatalf("base %v: sentinel too close to threshold", base)
		}
	}
}
