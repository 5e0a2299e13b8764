package sz

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
	"repro/internal/grid"
	"repro/internal/testutil"
)

// smooth3D generates a smooth 3D field plus mild noise, the easy case for
// Lorenzo prediction.
func smooth3D(nz, ny, nx int, seed int64) ([]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, nz*ny*nx)
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				data[i] = 10*math.Sin(float64(x)*0.2)*math.Cos(float64(y)*0.15) +
					5*math.Sin(float64(z)*0.1) + rng.NormFloat64()*0.01
				i++
			}
		}
	}
	return data, []int{nz, ny, nx}
}

func checkAbsBound(t *testing.T, orig, dec []float64, bound float64) {
	t.Helper()
	for i := range orig {
		if math.IsNaN(orig[i]) {
			if !math.IsNaN(dec[i]) {
				t.Fatalf("index %d: NaN not preserved (%v)", i, dec[i])
			}
			continue
		}
		if math.IsInf(orig[i], 0) {
			if dec[i] != orig[i] {
				t.Fatalf("index %d: Inf not preserved (%v)", i, dec[i])
			}
			continue
		}
		if d := math.Abs(dec[i] - orig[i]); d > bound {
			t.Fatalf("index %d: |%g - %g| = %g > bound %g", i, dec[i], orig[i], d, bound)
		}
	}
}

func TestAbsRoundTrip3D(t *testing.T) {
	data, dims := smooth3D(16, 20, 24, 1)
	for _, bound := range []float64{1e-6, 1e-3, 1e-1} {
		buf, err := CompressAbs(data, dims, bound, nil)
		if err != nil {
			t.Fatalf("bound %g: %v", bound, err)
		}
		dec, gotDims, err := Decompress(buf)
		if err != nil {
			t.Fatalf("bound %g: %v", bound, err)
		}
		if !grid.EqualDims(gotDims, dims) {
			t.Fatalf("dims = %v, want %v", gotDims, dims)
		}
		checkAbsBound(t, data, dec, bound)
	}
}

func TestAbsRoundTrip1D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]float64, 5000)
	v := 0.0
	for i := range data {
		v += rng.NormFloat64()
		data[i] = v // random walk: 1D-Lorenzo friendly
	}
	bound := 0.01
	buf, err := CompressAbs(data, []int{len(data)}, bound, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkAbsBound(t, data, dec, bound)
	if len(buf) >= len(data)*8 {
		t.Fatalf("no compression: %d >= %d", len(buf), len(data)*8)
	}
}

func TestAbsRoundTrip2D(t *testing.T) {
	ny, nx := 50, 60
	data := make([]float64, ny*nx)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			data[y*nx+x] = math.Exp(-((float64(x)-30)*(float64(x)-30) + (float64(y)-25)*(float64(y)-25)) / 200)
		}
	}
	bound := 1e-4
	buf, err := CompressAbs(data, []int{ny, nx}, bound, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkAbsBound(t, data, dec, bound)
}

func TestAbsCompressionRatioOnSmoothData(t *testing.T) {
	data, dims := smooth3D(32, 32, 32, 3)
	buf, err := CompressAbs(data, dims, 1e-2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cr := float64(len(data)*8) / float64(len(buf))
	if cr < 4 {
		t.Fatalf("compression ratio %.2f too low for smooth data", cr)
	}
}

func TestAbsSpikyData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := make([]float64, 4096)
	for i := range data {
		data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	bound := 1e-3
	buf, err := CompressAbs(data, []int{4096}, bound, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkAbsBound(t, data, dec, bound)
}

func TestAbsNaNInf(t *testing.T) {
	data := []float64{1, 2, math.NaN(), 4, math.Inf(1), 6, math.Inf(-1), 8}
	bound := 0.01
	buf, err := CompressAbs(data, []int{8}, bound, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkAbsBound(t, data, dec, bound)
}

func TestAbsAllZero(t *testing.T) {
	data := make([]float64, 1000)
	buf, err := CompressAbs(data, []int{10, 100}, 1e-5, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkAbsBound(t, data, dec, 1e-5)
	if len(buf) > 200 {
		t.Fatalf("all-zero field should compress tiny, got %d bytes", len(buf))
	}
}

func TestAbsSingleElement(t *testing.T) {
	data := []float64{3.14159}
	buf, err := CompressAbs(data, []int{1}, 1e-3, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkAbsBound(t, data, dec, 1e-3)
}

func TestAbsBadInputs(t *testing.T) {
	if _, err := CompressAbs([]float64{1, 2}, []int{3}, 0.1, nil); err == nil {
		t.Fatal("expected dims mismatch error")
	}
	if _, err := CompressAbs([]float64{1}, []int{1}, 0, nil); err == nil {
		t.Fatal("expected bad bound error")
	}
	if _, err := CompressAbs([]float64{1}, []int{1}, math.NaN(), nil); err == nil {
		t.Fatal("expected NaN bound error")
	}
	if _, err := CompressAbs([]float64{1}, []int{1}, -1, nil); err == nil {
		t.Fatal("expected negative bound error")
	}
}

func TestLosslessModes(t *testing.T) {
	data, dims := smooth3D(16, 16, 16, 5)
	for _, mode := range []Lossless{LosslessAuto, LosslessOff, LosslessOn} {
		buf, err := CompressAbs(data, dims, 1e-3, &Options{Lossless: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		dec, _, err := Decompress(buf)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		checkAbsBound(t, data, dec, 1e-3)
	}
}

func TestIntervalsOption(t *testing.T) {
	data, dims := smooth3D(8, 8, 8, 6)
	for _, iv := range []int{16, 256, 65536} {
		buf, err := CompressAbs(data, dims, 1e-3, &Options{Intervals: iv})
		if err != nil {
			t.Fatalf("intervals %d: %v", iv, err)
		}
		dec, _, err := Decompress(buf)
		if err != nil {
			t.Fatalf("intervals %d: %v", iv, err)
		}
		checkAbsBound(t, data, dec, 1e-3)
	}
}

func checkRelBound(t *testing.T, orig, dec []float64, rel float64, allowZeroPerturb bool) (maxRel float64) {
	t.Helper()
	for i := range orig {
		if orig[i] == 0 {
			if !allowZeroPerturb && dec[i] != 0 {
				t.Fatalf("index %d: zero perturbed to %g", i, dec[i])
			}
			continue
		}
		if math.IsNaN(orig[i]) || math.IsInf(orig[i], 0) {
			continue
		}
		r := math.Abs(dec[i]-orig[i]) / math.Abs(orig[i])
		if r > rel*(1+1e-9) {
			t.Fatalf("index %d: relative error %g > bound %g (orig %g dec %g)",
				i, r, rel, orig[i], dec[i])
		}
		if r > maxRel {
			maxRel = r
		}
	}
	return maxRel
}

func TestPWRRoundTrip(t *testing.T) {
	data, dims := smooth3D(16, 16, 16, 7)
	// Shift to strictly positive with wide dynamic range.
	for i := range data {
		data[i] = math.Exp(data[i] / 4)
	}
	for _, rel := range []float64{1e-3, 1e-2, 1e-1} {
		buf, err := CompressPWR(data, dims, rel, nil)
		if err != nil {
			t.Fatalf("rel %g: %v", rel, err)
		}
		dec, _, err := Decompress(buf)
		if err != nil {
			t.Fatalf("rel %g: %v", rel, err)
		}
		checkRelBound(t, data, dec, rel, true)
	}
}

func TestPWRZeroBlocks(t *testing.T) {
	data := make([]float64, 1024)
	for i := 512; i < 1024; i++ {
		data[i] = float64(i) * 1.5
	}
	buf, err := CompressPWR(data, []int{1024}, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Fully-zero blocks must reconstruct exactly.
	for i := 0; i < 504; i++ { // inside all-zero blocks (block side 8)
		if dec[i] != 0 {
			t.Fatalf("index %d: zero block perturbed to %g", i, dec[i])
		}
	}
	checkRelBound(t, data, dec, 0.01, true)
}

func TestPWRDegradesOnSpikyBlocks(t *testing.T) {
	// A block whose min is far smaller than the rest forces a tiny bound on
	// the whole block — the design weakness the paper calls out. Verify the
	// bound still holds (correctness) and CR is worse than for uniform data.
	rng := rand.New(rand.NewSource(8))
	spiky := make([]float64, 8192)
	uniform := make([]float64, 8192)
	for i := range spiky {
		uniform[i] = 100 + rng.Float64()
		spiky[i] = 100 + rng.Float64()
		if i%64 == 0 {
			spiky[i] = 1e-8 // one tiny value per block
		}
	}
	rel := 0.01
	bs, err := CompressPWR(spiky, []int{8192}, rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	bu, err := CompressPWR(uniform, []int{8192}, rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(bs)
	if err != nil {
		t.Fatal(err)
	}
	checkRelBound(t, spiky, dec, rel, true)
	if len(bs) <= len(bu) {
		t.Fatalf("expected spiky blocks to compress worse: %d vs %d", len(bs), len(bu))
	}
}

func TestPWRMixedSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]float64, 2048)
	for i := range data {
		data[i] = rng.NormFloat64() * 1000
	}
	rel := 0.05
	buf, err := CompressPWR(data, []int{2048}, rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkRelBound(t, data, dec, rel, true)
}

func TestPWRBadBound(t *testing.T) {
	if _, err := CompressPWR([]float64{1}, []int{1}, 0, nil); err == nil {
		t.Fatal("expected error for zero bound")
	}
	if _, err := CompressPWR([]float64{1}, []int{1}, 1.5, nil); err == nil {
		t.Fatal("expected error for bound >= 1")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	data, dims := smooth3D(8, 8, 8, 10)
	buf, err := CompressAbs(data, dims, 1e-3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations must error, never panic.
	for _, cut := range []int{0, 1, 4, 5, 10, len(buf) / 2, len(buf) - 1} {
		if _, _, err := Decompress(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d did not error", cut)
		}
	}
	// Bad magic.
	mut := append([]byte(nil), buf...)
	mut[0] ^= 0xff
	if _, _, err := Decompress(mut); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Random bit flips anywhere must not panic (may or may not error).
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), buf...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		_, _, _ = Decompress(mut)
	}
}

func TestQuickAbsBoundInvariant(t *testing.T) {
	f := func(seed int64, boundSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
		}
		bound := math.Pow(10, -float64(boundSel%8)-1)
		buf, err := CompressAbs(data, []int{n}, bound, nil)
		if err != nil {
			return false
		}
		dec, _, err := Decompress(buf)
		if err != nil || len(dec) != n {
			return false
		}
		for i := range data {
			if math.Abs(dec[i]-data[i]) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPWRBoundInvariant(t *testing.T) {
	f := func(seed int64, boundSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		data := make([]float64, n)
		for i := range data {
			data[i] = (rng.Float64() + 0.001) * math.Pow(10, float64(rng.Intn(8)-4))
			if rng.Intn(2) == 0 {
				data[i] = -data[i]
			}
		}
		rel := math.Pow(10, -float64(boundSel%4)-1)
		buf, err := CompressPWR(data, []int{n}, rel, nil)
		if err != nil {
			return false
		}
		dec, _, err := Decompress(buf)
		if err != nil || len(dec) != n {
			return false
		}
		for i := range data {
			if data[i] == 0 {
				continue
			}
			if math.Abs(dec[i]-data[i])/math.Abs(data[i]) > rel*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoIntervals(t *testing.T) {
	data, dims := smooth3D(16, 16, 16, 20)
	bound := 1e-3
	auto, err := CompressAbs(data, dims, bound, &Options{Intervals: IntervalsAuto})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(auto)
	if err != nil {
		t.Fatal(err)
	}
	checkAbsBound(t, data, dec, bound)
	// Smooth data has tiny residuals: auto capacity should not be larger
	// than the fixed default's stream.
	fixed, err := CompressAbs(data, dims, bound, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(auto) > len(fixed)*11/10 {
		t.Fatalf("auto intervals stream %d much larger than fixed %d", len(auto), len(fixed))
	}
}

func TestAutoIntervalsSpiky(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	data := make([]float64, 4096)
	for i := range data {
		data[i] = rng.NormFloat64() * 1000
	}
	bound := 1e-6 // residuals far exceed any capacity: mostly unpredictable
	buf, err := CompressAbs(data, []int{4096}, bound, &Options{Intervals: IntervalsAuto})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkAbsBound(t, data, dec, bound)
}

func TestAutoIntervalsPWRFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	data := make([]float64, 2048)
	for i := range data {
		data[i] = 1 + rng.Float64()
	}
	buf, err := CompressPWR(data, []int{2048}, 0.01, &Options{Intervals: IntervalsAuto})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkRelBound(t, data, dec, 0.01, true)
}

func TestAbsRoundTrip4D(t *testing.T) {
	// 4D: a stack of time steps of a smooth 3D field (the time-series use
	// case the generic Lorenzo predictor enables).
	nt, nz, ny, nx := 4, 8, 10, 12
	data := make([]float64, nt*nz*ny*nx)
	i := 0
	for ts := 0; ts < nt; ts++ {
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					data[i] = 10*math.Sin(float64(x)*0.2+float64(ts)*0.1)*
						math.Cos(float64(y)*0.15) + 5*math.Sin(float64(z)*0.1)
					i++
				}
			}
		}
	}
	dims := []int{nt, nz, ny, nx}
	bound := 1e-3
	buf, err := CompressAbs(data, dims, bound, nil)
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
	checkAbsBound(t, data, dec, bound)
	// Temporal coherence should compress well below raw.
	if len(buf)*4 > len(data)*8 {
		t.Fatalf("poor 4D compression: %d bytes", len(buf))
	}
}

func TestPWRRoundTrip4D(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	dims := []int{3, 6, 6, 6}
	data := make([]float64, grid.Size(dims))
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64())
	}
	buf, err := CompressPWR(data, dims, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkRelBound(t, data, dec, 0.01, true)
}

// TestHostileHuffmanTableMemory: a stream whose Huffman table declares a
// 2^24-symbol alphabet with one symbol (7 bytes) must fail to decode
// without allocating for the declared alphabet. The stream's dims ask for
// 600 codes and its payload holds 8.
func TestHostileHuffmanTableMemory(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's own allocations swamp the ceiling")
	}
	table := []byte{0x80, 0x80, 0x80, 0x08, 0x01, 0x01, 0x01}
	hbuf := append(append([]byte(nil), table...), 0x08, 0x00) // 8 symbols of code 0
	payload := bitio.AppendUvarint(nil, uint64(len(hbuf)))
	payload = append(payload, hbuf...)
	payload = bitio.AppendUvarint(payload, 0) // no raw values
	payload = bitio.AppendUvarint(payload, 0)
	opt := (&Options{Lossless: LosslessOff}).withDefaults()
	stream, err := assemble(modeAbs, []int{600}, 1e-3, opt, payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	refuseUnder8KiB(t, stream)
}

// TestHostileBlockCountMemory: an SZ_PWR stream whose block list declares
// 2^21 exponents in its 4 bytes must fail without sizing the list for
// them, since each exponent takes at least one byte.
func TestHostileBlockCountMemory(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's own allocations swamp the ceiling")
	}
	opt := (&Options{Lossless: LosslessOff}).withDefaults()
	stream, err := assemble(modePWR, []int{1 << 24}, 1e-2, opt, bitio.AppendUvarint(nil, 1<<21), nil)
	if err != nil {
		t.Fatal(err)
	}
	refuseUnder8KiB(t, stream)
}

// refuseUnder8KiB asserts that decoding stream fails and allocates under
// 8 KiB on the way.
func refuseUnder8KiB(t *testing.T, stream []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := Decompress(stream)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a hostile stream decoded without error")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 8<<10 {
		t.Fatalf("refusing a %d-byte stream allocated %d bytes", len(stream), n)
	}
}
