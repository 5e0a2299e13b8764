package repro

// Integration tests: cross-module scenarios over the full synthetic
// application suite, exercising the public API the way the experiment
// harness and a downstream user would.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// TestFullSuiteAllCompressorsBounded compresses every field of every
// application with every relative-bound algorithm at two bounds and checks
// the advertised guarantees.
func TestFullSuiteAllCompressorsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	fields := datagen.Suite(datagen.ScaleTest, 99)
	for _, rel := range []float64{1e-3, 1e-1} {
		for _, algo := range RelativeAlgorithms() {
			for i := range fields {
				f := &fields[i]
				buf, err := Compress(f.Data, f.Dims, rel, algo, nil)
				if err != nil {
					t.Fatalf("%v %s @%g: %v", algo, f.String(), rel, err)
				}
				dec, _, err := Decompress(buf)
				if err != nil {
					t.Fatalf("%v %s @%g: %v", algo, f.String(), rel, err)
				}
				st, err := metrics.RelError(f.Data, dec, rel)
				if err != nil {
					t.Fatal(err)
				}
				switch algo {
				case ZFPP:
					// ZFP_P neither bounds the error nor preserves zeros
					// (the paper's "*"): on sparse fields like the Hurricane
					// cloud/precipitation data the perturbed zeros alone
					// push the bounded fraction down to ~70%.
					if st.BoundedFrac < 0.5 {
						t.Errorf("%v %s @%g: bounded only %.3f", algo, f.String(), rel, st.BoundedFrac)
					}
				default:
					if st.Max > rel*(1+1e-9) {
						t.Errorf("%v %s @%g: max rel %g", algo, f.String(), rel, st.Max)
					}
				}
				if algo == SZT || algo == ZFPT || algo == FPZIP || algo == ISABELA {
					if st.ZeroPerturbed != 0 {
						t.Errorf("%v %s: %d zeros perturbed", algo, f.String(), st.ZeroPerturbed)
					}
				}
			}
		}
	}
}

// TestDeterministicStreams asserts byte-identical output across repeated
// compressions (required for reproducible archives and caching).
func TestDeterministicStreams(t *testing.T) {
	fields := datagen.NYX(16, 7)
	f := &fields[0]
	for _, algo := range RelativeAlgorithms() {
		a, err := Compress(f.Data, f.Dims, 1e-2, algo, nil)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		b, err := Compress(f.Data, f.Dims, 1e-2, algo, nil)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%v: nondeterministic stream", algo)
		}
	}
	// Parallel streams must be deterministic too (fixed chunking).
	a, err := CompressParallelOpts(f.Data, f.Dims, 1e-2, SZT, WithWorkers(3), WithChunkRows(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompressParallelOpts(f.Data, f.Dims, 1e-2, SZT, WithWorkers(1), WithChunkRows(4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("parallel stream depends on worker count")
	}
}

// TestRatioOrderingOnSuite verifies the paper's headline ordering on the
// aggregate suite: SZ_T ≥ each baseline in total compressed size.
func TestRatioOrderingOnSuite(t *testing.T) {
	fields := datagen.Suite(datagen.ScaleTest, 5)
	rel := 1e-2
	totals := map[Algorithm]int{}
	for _, algo := range []Algorithm{SZT, SZPWR, FPZIP, ISABELA, ZFPT} {
		for i := range fields {
			buf, err := Compress(fields[i].Data, fields[i].Dims, rel, algo, nil)
			if err != nil {
				t.Fatalf("%v: %v", algo, err)
			}
			totals[algo] += len(buf)
		}
	}
	for _, algo := range []Algorithm{SZPWR, FPZIP, ISABELA, ZFPT} {
		if totals[SZT] >= totals[algo] {
			t.Errorf("SZ_T total %d not better than %v total %d", totals[SZT], algo, totals[algo])
		}
	}
}

// TestTighterBoundCostsMoreBits checks monotonicity of size in the bound
// for the guaranteed compressors.
func TestTighterBoundCostsMoreBits(t *testing.T) {
	fields := datagen.NYX(24, 6)
	f := &fields[0]
	for _, algo := range []Algorithm{SZT, ZFPT, FPZIP, SZPWR} {
		var prev int
		for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
			buf, err := Compress(f.Data, f.Dims, rel, algo, nil)
			if err != nil {
				t.Fatalf("%v @%g: %v", algo, rel, err)
			}
			if prev > 0 && len(buf) < prev*95/100 {
				t.Errorf("%v: tighter bound %g shrank stream (%d < %d)", algo, rel, len(buf), prev)
			}
			prev = len(buf)
		}
	}
}

// TestArchiveSnapshotWorkflow mirrors a real dump: compress a whole NYX
// snapshot (all fields, mixed algorithms) into one archive, reopen,
// validate each field, and confirm stats survive compression.
func TestArchiveSnapshotWorkflow(t *testing.T) {
	fields := datagen.NYX(24, 44)
	var archive bytes.Buffer
	w, err := NewArchiveStreamWriter(&archive)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fields {
		f := &fields[i]
		algo := SZT
		if f.Name == "temperature" {
			algo = FPZIP
		}
		if _, err := w.AddField(f.Name, bytes.NewReader(rawLE(f.Data)), f.Dims, 1e-3, algo); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenArchive(archive.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fields {
		f := &fields[i]
		dec, dims, err := r.Field(f.Name)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		// Post-decompression statistics must match the original closely:
		// the relative bound preserves distribution shape.
		so, err := stats.Compute(f.Data, dims)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := stats.Compute(dec, dims)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sd.Mean-so.Mean) > 1e-3*math.Abs(so.Mean)+1e-12 {
			t.Errorf("%s: mean drifted %g -> %g", f.Name, so.Mean, sd.Mean)
		}
		if so.Positives != sd.Positives || so.Negatives != sd.Negatives || so.Zeros != sd.Zeros {
			t.Errorf("%s: sign census changed", f.Name)
		}
	}
}

// TestCrossAlgorithmStreamsDontConfuse ensures a stream from one algorithm
// cannot be misparsed as another (magic/algo dispatch).
func TestCrossAlgorithmStreamsDontConfuse(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	streams := map[Algorithm][]byte{}
	for _, algo := range RelativeAlgorithms() {
		buf, err := Compress(data, []int{8}, 0.01, algo, nil)
		if err != nil {
			t.Fatal(err)
		}
		streams[algo] = buf
	}
	for algo, buf := range streams {
		got, err := AlgorithmOf(buf)
		if err != nil || got != algo {
			t.Errorf("%v stream identified as %v (%v)", algo, got, err)
		}
		dec, _, err := Decompress(buf)
		if err != nil || len(dec) != 8 {
			t.Errorf("%v stream failed decode: %v", algo, err)
		}
	}
}

// TestValueRangeRelativeMode exercises CompressValueRange (the SZ-style
// value-range-relative bound, distinct from point-wise relative).
func TestValueRangeRelativeMode(t *testing.T) {
	fields := datagen.NYX(16, 45)
	f := &fields[1] // velocity
	ratio := 1e-4
	buf, err := CompressValueRange(f.Data, f.Dims, ratio, SZABS, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range f.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	bound := ratio * (hi - lo)
	for i := range f.Data {
		if math.Abs(dec[i]-f.Data[i]) > bound {
			t.Fatalf("value-range bound violated at %d", i)
		}
	}
	if _, err := CompressValueRange(f.Data, f.Dims, 0, SZABS, nil); err == nil {
		t.Fatal("ratio=0 accepted")
	}
	constant := make([]float64, 16)
	if _, err := CompressValueRange(constant, []int{16}, 1e-3, SZABS, nil); err != nil {
		t.Fatalf("constant field: %v", err)
	}
}
