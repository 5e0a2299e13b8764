package repro_test

// Benchmark harness: one benchmark per table/figure of the paper (run the
// full set with `go test -bench=. -benchmem`), plus per-compressor
// throughput microbenchmarks. The experiment benchmarks execute the same
// runners as cmd/benchtables at test scale and report headline numbers as
// custom metrics; run cmd/benchtables for the full printed tables.

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"testing"

	"repro"
	"repro/internal/bitio"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/huffman"
	"repro/internal/testutil"
)

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = datagen.ScaleTest
	return cfg
}

// BenchmarkTableII_BaseSelectionSZ regenerates Table II (compression ratio
// of log bases 2/e/10 for SZ_T on two NYX fields).
func BenchmarkTableII_BaseSelectionSZ(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableII(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Headline: base-2 CR on density at 1e-2 and max deviation of
			// other bases from it.
			base2 := res.Ratio[0][2][0]
			worstDev := 0.0
			for fi := range res.Fields {
				for bi := range res.Bounds {
					for k := 1; k < 3; k++ {
						d := res.Ratio[fi][bi][k]/res.Ratio[fi][bi][0] - 1
						if d < 0 {
							d = -d
						}
						if d > worstDev {
							worstDev = d
						}
					}
				}
			}
			b.ReportMetric(base2, "CR(base2,density,1e-2)")
			b.ReportMetric(worstDev*100, "max-base-deviation-%")
		}
	}
}

// BenchmarkFigure1_RateDistortionZFP regenerates Figure 1 (rel-PSNR vs
// bit-rate for ZFP_T under the three bases).
func BenchmarkFigure1_RateDistortionZFP(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			mid := len(experiments.Figure1Bounds) / 2
			p := res.Series[0][0][mid]
			b.ReportMetric(p.BitRate, "bitrate(density,mid)")
			b.ReportMetric(p.RelPSNR, "relPSNR(density,mid)")
		}
	}
}

// BenchmarkTableIII_TransformOverhead regenerates Table III (pre-/post-
// processing time per base).
func BenchmarkTableIII_TransformOverhead(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIII(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Post-processing slowdown of base 10 vs base 2 (the paper's
			// reason for fixing base 2).
			slow := res.PostSeconds[0][2] / res.PostSeconds[0][0]
			b.ReportMetric(slow, "base10/base2-postproc")
		}
	}
}

// BenchmarkTableIV_StrictBound regenerates Table IV (strict error-bound
// test across the six compressors).
func BenchmarkTableIV_StrictBound(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIV(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Algo == repro.SZT && r.Field == "dark_matter_density" && r.Bound == 1e-2 {
					b.ReportMetric(r.Ratio, "CR(SZ_T,density,1e-2)")
					b.ReportMetric(r.MaxE, "maxE(SZ_T,density,1e-2)")
				}
			}
		}
	}
}

// BenchmarkFigure2_CompressionRatio and BenchmarkFigure3_Throughput
// regenerate the four-application sweeps.
func BenchmarkFigure2_CompressionRatio(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r2, err := experiments.Figure2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// SZ_T win count across all (app, bound) cells.
			sztIdx := -1
			for k, a := range experiments.Figure23Algos {
				if a == repro.SZT {
					sztIdx = k
				}
			}
			wins, cells := 0, 0
			for ai := range r2.Apps {
				for bi := range experiments.Figure23Bounds {
					cells++
					best := true
					for k := range experiments.Figure23Algos {
						if k != sztIdx && r2.Ratio[ai][k][bi] > r2.Ratio[ai][sztIdx][bi] {
							best = false
						}
					}
					if best {
						wins++
					}
				}
			}
			b.ReportMetric(float64(wins), "SZ_T-wins")
			b.ReportMetric(float64(cells), "cells")
		}
	}
}

func BenchmarkFigure3_Throughput(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r3, err := experiments.Figure3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// NYX SZ_T compression rate at 1e-2.
			for ai, app := range r3.Apps {
				if app != "NYX" {
					continue
				}
				for k, a := range experiments.Figure23Algos {
					if a == repro.SZT {
						b.ReportMetric(r3.CompressMBs[ai][k][2], "SZ_T-NYX-comp-MB/s")
						b.ReportMetric(r3.DecompressMBs[ai][k][2], "SZ_T-NYX-decomp-MB/s")
					}
				}
			}
		}
	}
}

// BenchmarkFigure4_Multiprecision regenerates the matched-ratio slice
// distortion comparison.
func BenchmarkFigure4_Multiprecision(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, e := range res.Entries {
				switch e.Name {
				case "SZ_T":
					b.ReportMetric(e.MaxRel, "maxRel(SZ_T)")
				case "FPZIP":
					b.ReportMetric(e.MaxRel, "maxRel(FPZIP)")
				}
			}
		}
	}
}

// BenchmarkFigure5_AngleSkew regenerates the velocity-direction experiment.
func BenchmarkFigure5_AngleSkew(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, e := range res.Entries {
				switch e.Name {
				case "SZ_T":
					b.ReportMetric(e.Skew.Avg, "avgSkew(SZ_T)")
				case "SZ_ABS":
					b.ReportMetric(e.Skew.Avg, "avgSkew(SZ_ABS)")
				}
			}
		}
	}
}

// BenchmarkFigure6_ParallelIO regenerates the parallel dump/load model.
func BenchmarkFigure6_ParallelIO(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sztDump, bestOtherDump float64
			for _, e := range res.Entries {
				if e.Cores != 4096 {
					continue
				}
				t := e.Dump.Total().Seconds()
				if e.Algo == repro.SZT {
					sztDump = t
				} else if bestOtherDump == 0 || t < bestOtherDump {
					bestOtherDump = t
				}
			}
			b.ReportMetric(sztDump, "SZ_T-dump-s@4096")
			b.ReportMetric(bestOtherDump/sztDump, "speedup-vs-2nd-best")
		}
	}
}

// --- Per-compressor throughput microbenchmarks -------------------------

func benchField(b *testing.B) datagen.Field {
	b.Helper()
	return datagen.NYX(32, 99)[0] // dark_matter_density 32^3
}

func benchCompress(b *testing.B, algo repro.Algorithm) {
	f := benchField(b)
	b.SetBytes(int64(f.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := repro.Compress(f.Data, f.Dims, 1e-2, algo, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(f.Bytes())/float64(len(buf)), "ratio")
		}
	}
}

func benchDecompress(b *testing.B, algo repro.Algorithm) {
	f := benchField(b)
	buf, err := repro.Compress(f.Data, f.Dims, 1e-2, algo, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(f.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.Decompress(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressSZT(b *testing.B)       { benchCompress(b, repro.SZT) }
func BenchmarkCompressZFPT(b *testing.B)      { benchCompress(b, repro.ZFPT) }
func BenchmarkCompressSZPWR(b *testing.B)     { benchCompress(b, repro.SZPWR) }
func BenchmarkCompressZFPP(b *testing.B)      { benchCompress(b, repro.ZFPP) }
func BenchmarkCompressFPZIP(b *testing.B)     { benchCompress(b, repro.FPZIP) }
func BenchmarkCompressISABELA(b *testing.B)   { benchCompress(b, repro.ISABELA) }
func BenchmarkDecompressSZT(b *testing.B)     { benchDecompress(b, repro.SZT) }
func BenchmarkDecompressZFPT(b *testing.B)    { benchDecompress(b, repro.ZFPT) }
func BenchmarkDecompressSZPWR(b *testing.B)   { benchDecompress(b, repro.SZPWR) }
func BenchmarkDecompressFPZIP(b *testing.B)   { benchDecompress(b, repro.FPZIP) }
func BenchmarkDecompressISABELA(b *testing.B) { benchDecompress(b, repro.ISABELA) }

// --- Per-chunk fixed cost ---------------------------------------------------
//
// A stream container codes each chunk as its own Compress stream, so the
// codec's fixed cost per call is paid once per chunk. chunkRow is the
// fine-chunk perfbench workload's chunk: one 600-element CESM-ATM row.

func chunkRow() ([]float64, []int) {
	f := datagen.CESMATM(300, 600, 1)[0]
	return f.Data[150*600 : 151*600], []int{1, 600}
}

func chunkRoundTrip(data []float64, dims []int, algo repro.Algorithm) error {
	buf, err := repro.Compress(data, dims, 1e-2, algo, nil)
	if err != nil {
		return err
	}
	_, _, err = repro.Decompress(buf)
	return err
}

// BenchmarkChunkRoundTrip measures one Compress + Decompress of a chunk
// row: run it with -benchmem -cpu 1 to see the per-chunk fixed cost.
func BenchmarkChunkRoundTrip(b *testing.B) {
	data, dims := chunkRow()
	for _, algo := range []repro.Algorithm{repro.SZT, repro.ZFPT} {
		b.Run(algo.String(), func(b *testing.B) {
			b.SetBytes(int64(len(data) * 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := chunkRoundTrip(data, dims, algo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestChunkRoundTripAllocs guards the per-chunk fixed cost: once the
// codec's pooled deflate state is warm, an SZ_T round trip of a chunk row
// must allocate under 64 KiB per call, averaged over 500 calls. Huffman
// tables sized to the 65,537-symbol alphabet, or a fresh ~1.2 MB
// flate.Writer per call, would each break it.
func TestChunkRoundTripAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's own allocations swamp the ceiling")
	}
	data, dims := chunkRow()
	if err := chunkRoundTrip(data, dims, repro.SZT); err != nil { // warm-up
		t.Fatal(err)
	}
	const calls = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if err := chunkRoundTrip(data, dims, repro.SZT); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / calls
	if per >= 64<<10 {
		t.Fatalf("SZ_T chunk round trip allocates %d bytes per call, want under 64 KiB", per)
	}
	t.Logf("SZ_T chunk round trip: %d bytes per call", per)
}

// --- Streaming pipeline benchmarks -------------------------------------
//
// BenchmarkCompressParallel vs BenchmarkCompressStream on the same field
// and chunking compares the two ways into the one stream pipeline: a
// float64 slice already in memory against raw bytes from an io.Reader.
// Both write the same container while holding O(workers × chunk) floats.

func benchStreamField(b *testing.B) (datagen.Field, []byte) {
	b.Helper()
	f := datagen.NYX(64, 99)[0] // dark_matter_density 64^3, 2 MiB
	raw := make([]byte, len(f.Data)*8)
	for i, v := range f.Data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	return f, raw
}

const benchStreamChunks = 8

func BenchmarkCompressParallel(b *testing.B) {
	f, _ := benchStreamField(b)
	chunkRows := (f.Dims[0] + benchStreamChunks - 1) / benchStreamChunks
	b.SetBytes(int64(f.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := repro.CompressParallelOpts(f.Data, f.Dims, 1e-2, repro.SZT,
			repro.WithChunkRows(chunkRows))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(f.Bytes())/float64(len(buf)), "ratio")
		}
	}
}

func BenchmarkCompressStream(b *testing.B) {
	f, raw := benchStreamField(b)
	chunkRows := (f.Dims[0] + benchStreamChunks - 1) / benchStreamChunks
	var out bytes.Buffer
	out.Grow(len(raw))
	b.SetBytes(int64(f.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		st, err := repro.CompressStreamOpts(bytes.NewReader(raw), &out, f.Dims, 1e-2, repro.SZT,
			repro.WithChunkRows(chunkRows))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(st.BytesIn)/float64(st.BytesOut), "ratio")
			b.ReportMetric(float64(st.MaxInFlight), "max-in-flight")
		}
	}
}

func BenchmarkDecompressStream(b *testing.B) {
	f, raw := benchStreamField(b)
	chunkRows := (f.Dims[0] + benchStreamChunks - 1) / benchStreamChunks
	var comp bytes.Buffer
	if _, err := repro.CompressStreamOpts(bytes.NewReader(raw), &comp, f.Dims, 1e-2, repro.SZT,
		repro.WithChunkRows(chunkRows)); err != nil {
		b.Fatal(err)
	}
	stream := comp.Bytes()
	b.SetBytes(int64(f.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.DecompressStreamOpts(bytes.NewReader(stream), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadRows measures the seekable read path on a 10k-chunk
// container: the 1% range must cost O(touched chunks) — compare its
// per-op time and chunks/op against the full span, which decodes all
// 10k. Run `benchtables -exp seek` for the bytes-fetched table.
func BenchmarkReadRows(b *testing.B) {
	const rows, stride = 10000, 4
	data := make([]float64, rows*stride)
	for i := range data {
		data[i] = 40*math.Cos(float64(i)/7) + 90
	}
	raw := make([]byte, len(data)*8)
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	var comp bytes.Buffer
	if _, err := repro.CompressStreamOpts(bytes.NewReader(raw), &comp, []int{rows, stride},
		1e-2, repro.SZT, repro.WithChunkRows(1)); err != nil {
		b.Fatal(err)
	}
	stream := comp.Bytes()
	for _, c := range []struct {
		name         string
		start, count uint64
	}{
		{"range1pct", rows * 2 / 5, rows / 100},
		{"fullspan", 0, rows},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			h, err := repro.OpenStream(bytes.NewReader(stream))
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]float64, c.count*stride)
			b.SetBytes(int64(len(dst)) * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.ReadRows(dst, c.start, c.count); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(h.Stats().Chunks)/float64(b.N), "chunks/op")
		})
	}
}

// --- Allocation microbenchmarks (allochot remediation) -----------------
//
// Compare with `go test -bench='HuffmanBuild|BitWriter|ISABELA' -benchmem`
// before and after hoisting the per-iteration buffers: the codec setup
// and inner loops should allocate a small constant number of times, not
// O(iterations).

// BenchmarkHuffmanBuild measures codebook construction from a frequency
// table (the setup cost of every ISABELA encode); the code book's arrays are
// sized to the symbols present.
func BenchmarkHuffmanBuild(b *testing.B) {
	freqs := make([]uint64, 66)
	for i := range freqs {
		freqs[i] = uint64(i*i + 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := huffman.Build(freqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitWriter measures the bit-packing word-flush path that every
// encoder funnels through.
func BenchmarkBitWriter(b *testing.B) {
	const words = 1024
	b.SetBytes(words * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := bitio.NewWriter(words * 8)
		for j := 0; j < words; j++ {
			w.WriteBits(uint64(j)*0x9E3779B97F4A7C15, 53)
		}
		if len(w.Bytes()) == 0 {
			b.Fatal("no output")
		}
	}
}

// BenchmarkAblationRoundoffGuard measures the cost of Lemma 2's guard.
func BenchmarkAblationRoundoffGuard(b *testing.B) {
	f := benchField(b)
	b.SetBytes(int64(f.Bytes()))
	for i := 0; i < b.N; i++ {
		if _, err := repro.Compress(f.Data, f.Dims, 1e-2, repro.SZT, &repro.Options{DisableRoundoffGuard: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSZIntervals sweeps SZ's quantization capacity.
func BenchmarkAblationSZIntervals(b *testing.B) {
	f := benchField(b)
	for _, iv := range []int{256, 4096, 65536} {
		iv := iv
		b.Run(intervalName(iv), func(b *testing.B) {
			b.SetBytes(int64(f.Bytes()))
			for i := 0; i < b.N; i++ {
				buf, err := repro.Compress(f.Data, f.Dims, 1e-2, repro.SZT, &repro.Options{Intervals: iv})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(f.Bytes())/float64(len(buf)), "ratio")
				}
			}
		})
	}
}

func intervalName(iv int) string {
	switch iv {
	case 256:
		return "intervals256"
	case 4096:
		return "intervals4096"
	default:
		return "intervals65536"
	}
}

// BenchmarkAblationPWRBlockSide sweeps SZ_PWR's block size (the design the
// paper's transform replaces).
func BenchmarkAblationPWRBlockSide(b *testing.B) {
	f := benchField(b)
	for _, side := range []int{4, 8, 16} {
		side := side
		name := map[int]string{4: "side4", 8: "side8", 16: "side16"}[side]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(f.Bytes()))
			for i := 0; i < b.N; i++ {
				buf, err := repro.Compress(f.Data, f.Dims, 1e-2, repro.SZPWR, &repro.Options{BlockSide: side})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(f.Bytes())/float64(len(buf)), "ratio")
				}
			}
		})
	}
}

// BenchmarkArchiveStreamWrite measures the streaming-archive writer on
// a two-field bundle — the per-field overhead over a bare stream is the
// directory bookkeeping, which should be noise.
func BenchmarkArchiveStreamWrite(b *testing.B) {
	f, raw := benchStreamField(b)
	b.SetBytes(int64(2 * len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		aw, err := repro.NewArchiveStreamWriter(&buf, repro.WithChunkRows(f.Dims[0]/benchStreamChunks))
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"a", "b"} {
			if _, err := aw.AddField(name, bytes.NewReader(raw), f.Dims, 1e-2, repro.SZT); err != nil {
				b.Fatal(err)
			}
		}
		if err := aw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveStreamField measures opening one field of a sealed
// archive and reading a quarter of its rows — the random-access path a
// post-hoc analysis tool takes.
func BenchmarkArchiveStreamField(b *testing.B) {
	f, raw := benchStreamField(b)
	var buf bytes.Buffer
	aw, err := repro.NewArchiveStreamWriter(&buf, repro.WithChunkRows(f.Dims[0]/benchStreamChunks))
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := aw.AddField(name, bytes.NewReader(raw), f.Dims, 1e-2, repro.SZT); err != nil {
			b.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		b.Fatal(err)
	}
	arch := buf.Bytes()
	rows := uint64(f.Dims[0] / 4)
	stride := len(f.Data) / f.Dims[0]
	dst := make([]float64, rows*uint64(stride))
	b.SetBytes(int64(len(dst) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as, err := repro.OpenArchiveStream(bytes.NewReader(arch))
		if err != nil {
			b.Fatal(err)
		}
		h, err := as.Field("b")
		if err != nil {
			b.Fatal(err)
		}
		if err := h.ReadRows(dst, rows, rows); err != nil {
			b.Fatal(err)
		}
	}
}
