package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro"
	"repro/internal/datagen"
	"repro/internal/pfs"
)

func testConfig() Config {
	return Config{Scale: datagen.ScaleTest, Seed: 7}
}

func TestTableII(t *testing.T) {
	res, err := TableII(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fields) != 2 || len(res.Ratio) != 2 {
		t.Fatalf("fields %v", res.Fields)
	}
	// Lemma 3: bases agree within a few percent for every bound/field.
	for fi := range res.Fields {
		for bi := range res.Bounds {
			base2 := res.Ratio[fi][bi][0]
			if base2 <= 1 {
				t.Fatalf("%s at %g: CR %.2f <= 1", res.Fields[fi], res.Bounds[bi], base2)
			}
			for baseIdx := 1; baseIdx < len(Bases); baseIdx++ {
				dev := (res.Ratio[fi][bi][baseIdx] - base2) / base2
				if dev > 0.15 || dev < -0.15 {
					t.Fatalf("%s at %g: base %s deviates %.1f%%",
						res.Fields[fi], res.Bounds[bi], Bases[baseIdx], dev*100)
				}
			}
		}
	}
	// CR must grow with the bound (monotone in eb for base 2).
	for fi := range res.Fields {
		for bi := 1; bi < len(res.Bounds); bi++ {
			if res.Ratio[fi][bi][0] < res.Ratio[fi][bi-1][0]*0.95 {
				t.Fatalf("%s: CR not increasing with bound: %v",
					res.Fields[fi], res.Ratio[fi])
			}
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "dark_matter_density") {
		t.Fatal("print output missing field name")
	}
}

func TestTableIII(t *testing.T) {
	res, err := TableIII(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for fi := range res.Fields {
		for bi := range Bases {
			if res.PreSeconds[fi][bi] <= 0 || res.PostSeconds[fi][bi] <= 0 {
				t.Fatalf("non-positive timing at field %d base %d", fi, bi)
			}
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "post-processing") {
		t.Fatal("print output incomplete")
	}
}

func TestTableIV(t *testing.T) {
	rows, err := TableIV(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(TableIVBounds)*6*2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		switch r.Algo {
		case repro.SZT, repro.ZFPT, repro.FPZIP, repro.ISABELA:
			if r.MaxE > r.Bound {
				t.Fatalf("%v violated bound %g (max %g) on %s", r.Algo, r.Bound, r.MaxE, r.Field)
			}
			if !strings.HasPrefix(r.Bounded, "100%") {
				t.Fatalf("%v bounded = %q", r.Algo, r.Bounded)
			}
		case repro.SZPWR:
			if r.MaxE > r.Bound*(1+1e-9) {
				t.Fatalf("SZ_PWR violated bound: %g > %g", r.MaxE, r.Bound)
			}
		}
		if r.Ratio <= 0 {
			t.Fatalf("%v ratio %g", r.Algo, r.Ratio)
		}
	}
	// SZ_T must have the best ratio among prediction-based compressors for
	// the density field at every bound (the paper's headline).
	for _, eb := range TableIVBounds {
		best := ""
		bestCR := 0.0
		var szt float64
		for _, r := range rows {
			if r.Bound != eb || r.Field != "dark_matter_density" || r.Type != "prediction" {
				continue
			}
			if r.Ratio > bestCR {
				bestCR, best = r.Ratio, r.Algo.String()
			}
			if r.Algo == repro.SZT {
				szt = r.Ratio
			}
		}
		if best != "SZ_T" && bestCR > szt*1.05 {
			t.Fatalf("at %g, %s (%.2f) clearly beats SZ_T (%.2f) on density", eb, best, bestCR, szt)
		}
	}
	var buf bytes.Buffer
	PrintTableIV(&buf, rows)
	if !strings.Contains(buf.String(), "SZ_T") {
		t.Fatal("print output incomplete")
	}
}

func TestFigure1(t *testing.T) {
	res, err := Figure1(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for fi := range res.Fields {
		for bi := range Bases {
			curve := res.Series[fi][bi]
			if len(curve) != len(Figure1Bounds) {
				t.Fatalf("curve length %d", len(curve))
			}
			// Tighter bounds → higher bit rate and higher PSNR.
			for pi := 1; pi < len(curve); pi++ {
				if curve[pi].BitRate > curve[pi-1].BitRate*1.05 {
					t.Fatalf("bit rate should shrink as bound loosens: %+v", curve)
				}
			}
			if curve[0].RelPSNR < curve[len(curve)-1].RelPSNR {
				t.Fatalf("PSNR should be higher at tight bounds: %+v", curve)
			}
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "PSNR") {
		t.Fatal("print output incomplete")
	}
}

func TestFigure23(t *testing.T) {
	r2, r3, err := Figure23(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Apps) != 4 {
		t.Fatalf("apps %v", r2.Apps)
	}
	sztIdx, isaIdx := -1, -1
	for i, a := range Figure23Algos {
		switch a {
		case repro.SZT:
			sztIdx = i
		case repro.ISABELA:
			isaIdx = i
		}
	}
	wins := 0
	cells := 0
	for ai := range r2.Apps {
		for bi := range Figure23Bounds {
			cells++
			best := true
			for algoIdx := range Figure23Algos {
				if algoIdx != sztIdx && r2.Ratio[ai][algoIdx][bi] > r2.Ratio[ai][sztIdx][bi] {
					best = false
				}
			}
			if best {
				wins++
			}
			// ISABELA must never dominate (paper: lowest ratios).
			if r2.Ratio[ai][isaIdx][bi] > r2.Ratio[ai][sztIdx][bi]*1.2 {
				t.Fatalf("ISABELA beats SZ_T by >20%% in %s at %g",
					r2.Apps[ai], Figure23Bounds[bi])
			}
		}
	}
	if wins*2 < cells {
		t.Fatalf("SZ_T wins only %d of %d cells", wins, cells)
	}
	// Rates must be positive everywhere.
	for ai := range r3.Apps {
		for algoIdx := range Figure23Algos {
			for bi := range Figure23Bounds {
				if r3.CompressMBs[ai][algoIdx][bi] <= 0 || r3.DecompressMBs[ai][algoIdx][bi] <= 0 {
					t.Fatal("nonpositive rate")
				}
			}
		}
	}
	var buf bytes.Buffer
	r2.Print(&buf)
	r3.Print(&buf)
	if !strings.Contains(buf.String(), "NYX") {
		t.Fatal("print output incomplete")
	}
}

func TestFigure4(t *testing.T) {
	res, err := Figure4(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 {
		t.Fatalf("entries %d", len(res.Entries))
	}
	byName := map[string]Figure4Entry{}
	for _, e := range res.Entries {
		byName[e.Name] = e
		if len(e.Slice) != res.SliceDims[0]*res.SliceDims[1] {
			t.Fatalf("%s slice size", e.Name)
		}
		if e.Ratio < res.TargetRatio*0.5 || e.Ratio > res.TargetRatio*2 {
			t.Fatalf("%s ratio %.2f far from target %.0f", e.Name, e.Ratio, res.TargetRatio)
		}
	}
	// SZ_T needs the tightest relative bound to reach the ratio, hence the
	// smallest max relative error of the PWR compressors; SZ_ABS distorts
	// the small-value window most.
	if byName["SZ_T"].MaxRel >= byName["FPZIP"].MaxRel {
		t.Fatalf("SZ_T max rel %.3g should beat FPZIP %.3g",
			byName["SZ_T"].MaxRel, byName["FPZIP"].MaxRel)
	}
	if byName["SZ_ABS"].MaxRel <= byName["SZ_T"].MaxRel {
		t.Fatalf("SZ_ABS should have the worst relative distortion")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "SZ_ABS") {
		t.Fatal("print output incomplete")
	}
}

func TestFigure5(t *testing.T) {
	res, err := Figure5(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 {
		t.Fatalf("entries %d", len(res.Entries))
	}
	byName := map[string]Figure5Entry{}
	for _, e := range res.Entries {
		byName[e.Name] = e
	}
	// Paper's ordering: SZ_T < FPZIP < SZ_ABS in average skew angle.
	if !(byName["SZ_T"].Skew.Avg < byName["FPZIP"].Skew.Avg) {
		t.Fatalf("SZ_T avg skew %.4f should beat FPZIP %.4f",
			byName["SZ_T"].Skew.Avg, byName["FPZIP"].Skew.Avg)
	}
	if !(byName["SZ_T"].Skew.Avg < byName["SZ_ABS"].Skew.Avg) {
		t.Fatalf("SZ_T avg skew %.4f should beat SZ_ABS %.4f",
			byName["SZ_T"].Skew.Avg, byName["SZ_ABS"].Skew.Avg)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "skew") {
		t.Fatal("print output incomplete")
	}
}

func TestFigure6(t *testing.T) {
	// Inject deterministic per-core rates (MB/s magnitudes from the
	// paper's single-core measurements) so the dump/load ordering below
	// does not depend on live wall-clock throughput — under the race
	// detector the compressors slow down non-uniformly, which used to
	// flip the compute-time ordering. Ratios are still measured by
	// actually running each compressor.
	cfg := testConfig()
	cfg.FixedRates = map[repro.Algorithm]pfs.MeasuredRates{
		repro.SZPWR: {CompressRate: 120e6, DecompressRate: 250e6},
		repro.FPZIP: {CompressRate: 420e6, DecompressRate: 560e6},
		repro.SZT:   {CompressRate: 180e6, DecompressRate: 380e6},
	}
	res, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 9 { // 3 algos × 3 scales
		t.Fatalf("entries %d", len(res.Entries))
	}
	// SZ_T must dump and load fastest at 4,096 cores (best ratio wins in
	// the I/O-bound regime).
	best := map[int]Figure6Entry{}
	var szt Figure6Entry
	for _, e := range res.Entries {
		if e.Cores != 4096 {
			continue
		}
		if b, ok := best[e.Cores]; !ok || e.Dump.Total() < b.Dump.Total() {
			best[e.Cores] = e
		}
		if e.Algo == repro.SZT {
			szt = e
		}
	}
	if best[4096].Algo != repro.SZT {
		t.Fatalf("fastest dump at 4096 cores is %v, want SZ_T (szt=%v best=%v)",
			best[4096].Algo, szt.Dump, best[4096].Dump)
	}
	// Raw dump must be slower than every compressed dump.
	for _, e := range res.Entries {
		if raw, ok := res.RawDump[e.Cores]; ok && raw.Total() <= e.Dump.Total() {
			t.Fatalf("raw dump %v not slower than %v at %d cores",
				raw.Total(), e.Dump.Total(), e.Cores)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "4096") {
		t.Fatal("print output incomplete")
	}
}

func TestAblations(t *testing.T) {
	res, err := Ablations(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// With the guard, the bound holds strictly.
	if res.GuardOnMaxRel > res.GuardBound {
		t.Fatalf("guard on: max %g > bound %g", res.GuardOnMaxRel, res.GuardBound)
	}
	// Without it, the bound may be grazed but not smashed.
	if res.GuardOffMaxRel > res.GuardBound*1.001 {
		t.Fatalf("guard off: max %g way beyond bound %g", res.GuardOffMaxRel, res.GuardBound)
	}
	// Block-minimum design: CR must degrade monotonically with block side,
	// and SZ_T must beat every setting.
	for i := 1; i < len(res.BlockSides); i++ {
		if res.BlockSideRatio[i] > res.BlockSideRatio[i-1]*1.02 {
			t.Fatalf("block-side sweep not degrading: %v", res.BlockSideRatio)
		}
	}
	for i, r := range res.BlockSideRatio {
		if res.TransformRatio <= r {
			t.Fatalf("SZ_T %.2f not better than SZ_PWR side %d (%.2f)",
				res.TransformRatio, res.BlockSides[i], r)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "round-off guard") {
		t.Fatal("print output incomplete")
	}
}

func TestParityOverhead(t *testing.T) {
	res, err := ParityOverhead(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 4 || res.Entries[0].K != 0 {
		t.Fatalf("entries %+v", res.Entries)
	}
	base := res.Entries[0]
	if base.ParityFrames != 0 {
		t.Fatalf("K=0 emitted %d parity frames", base.ParityFrames)
	}
	for _, e := range res.Entries[1:] {
		// One parity frame per (possibly partial) group of K chunks.
		want := (res.Chunks + e.K - 1) / e.K
		if e.ParityFrames != want {
			t.Fatalf("K=%d: %d parity frames, want %d for %d chunks", e.K, e.ParityFrames, want, res.Chunks)
		}
		if e.Container <= base.Container {
			t.Fatalf("K=%d container %d not larger than baseline %d", e.K, e.Container, base.Container)
		}
	}
	// Larger groups amortize better: overhead must shrink with K.
	for i := 2; i < len(res.Entries); i++ {
		if res.Entries[i].Container >= res.Entries[i-1].Container {
			t.Fatalf("overhead not shrinking with K: %+v", res.Entries)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "size overhead") {
		t.Fatal("print output incomplete")
	}
}
