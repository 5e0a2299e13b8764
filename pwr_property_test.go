package repro_test

// Property-based bound-verification harness (ISSUE 3): a deterministic
// adversarial field suite (internal/testutil.AdversarialFields) swept
// across every relative-bound algorithm and three bounds, asserting
// Theorem 2's point-wise relative guarantee element by element — for
// the in-memory path (Compress) and the bounded-memory streaming path
// (CompressStreamOpts). Algorithm-specific relaxations mirror the paper's
// Table IV: ZFP_P does not guarantee the bound ("*"), and SZ_PWR does
// not preserve exact zeros.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro"
	"repro/internal/testutil"
)

func putLE(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
func getLE(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

var propertyBounds = []float64{1e-2, 1e-3, 1e-4}

// specFor returns the guarantee each algorithm actually advertises.
func specFor(algo repro.Algorithm, rel float64, extreme bool) testutil.PWRSpec {
	spec := testutil.PWRSpec{RelBound: rel, SkipSubnormals: extreme}
	switch algo {
	case repro.SZT, repro.ZFPT, repro.FPZIP, repro.ISABELA:
		spec.PreserveZeros = true
	}
	return spec
}

// boundGuaranteed reports whether the algorithm advertises a hard
// point-wise relative bound. ZFP's precision mode does not (the paper's
// "*" and the motivation for the transform scheme) — on the adversarial
// suite it bounds as little as 0% of points, so the harness asserts
// only round-trip shape for it.
func boundGuaranteed(algo repro.Algorithm) bool { return algo != repro.ZFPP }

func streamRoundTrip(t *testing.T, f *testutil.AdversarialField, rel float64, algo repro.Algorithm) ([]float64, error) {
	t.Helper()
	raw := make([]byte, 0, len(f.Data)*8)
	for _, v := range f.Data {
		var b [8]byte
		putLE(b[:], v)
		raw = append(raw, b[:]...)
	}
	var comp bytes.Buffer
	chunkRows := (f.Dims[0] + 2) / 3 // force ≥2 chunks on every field
	if chunkRows < 1 {
		chunkRows = 1
	}
	if _, err := repro.CompressStreamOpts(bytes.NewReader(raw), &comp, f.Dims, rel, algo,
		repro.WithWorkers(2), repro.WithChunkRows(chunkRows)); err != nil {
		return nil, err
	}
	var dec bytes.Buffer
	if _, err := repro.DecompressStreamOpts(bytes.NewReader(comp.Bytes()), &dec); err != nil {
		t.Fatalf("decode of own stream failed: %v", err)
	}
	db := dec.Bytes()
	out := make([]float64, len(db)/8)
	for i := range out {
		out[i] = getLE(db[i*8:])
	}
	return out, nil
}

// TestPWRPropertyHarness is the table sweep: algorithms × bounds ×
// adversarial fields × {in-memory, streaming}.
func TestPWRPropertyHarness(t *testing.T) {
	fields := testutil.AdversarialFields(20180704)
	for _, algo := range repro.RelativeAlgorithms() {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			for _, rel := range propertyBounds {
				for i := range fields {
					f := &fields[i]
					name := fmt.Sprintf("%s@%g", f.Name, rel)
					spec := specFor(algo, rel, f.Extreme)

					buf, err := repro.Compress(f.Data, f.Dims, rel, algo, nil)
					if err != nil {
						if f.Extreme {
							t.Logf("%s: refused extreme field (ok): %v", name, err)
							continue
						}
						t.Errorf("%s: compress: %v", name, err)
						continue
					}
					dec, dims, err := repro.Decompress(buf)
					if err != nil {
						t.Errorf("%s: decompress: %v", name, err)
						continue
					}
					if len(dims) != len(f.Dims) || len(dec) != len(f.Data) {
						t.Errorf("%s: shape %v/%d", name, dims, len(dec))
						continue
					}
					if boundGuaranteed(algo) {
						testutil.CheckPWRSpec(t, f.Data, dec, spec)
					}

					sdec, err := streamRoundTrip(t, f, rel, algo)
					if err != nil {
						if f.Extreme {
							continue
						}
						t.Errorf("%s: stream compress: %v", name, err)
						continue
					}
					if len(sdec) != len(f.Data) {
						t.Errorf("%s: stream decoded %d values", name, len(sdec))
						continue
					}
					if boundGuaranteed(algo) {
						testutil.CheckPWRSpec(t, f.Data, sdec, spec)
					}
				}
			}
		})
	}
}

// seekRanges enumerates the adversarial range shapes for a field of
// `rows` rows chunked every `chunkRows`: chunk-aligned, chunk-straddling,
// first row, last row, single row, full span, and empty.
func seekRanges(rows, chunkRows uint64) [][2]uint64 {
	ranges := [][2]uint64{
		{0, chunkRows},        // first chunk, aligned
		{0, 1},                // first row
		{rows - 1, 1},         // last row
		{rows / 2, 1},         // single mid row
		{0, rows},             // full span
		{0, 0}, {rows / 2, 0}, // empty
	}
	if chunkRows < rows {
		ranges = append(ranges,
			[2]uint64{chunkRows, chunkRows},     // interior chunk, aligned
			[2]uint64{chunkRows - 1, 2},         // straddles the first boundary
			[2]uint64{chunkRows / 2, chunkRows}) // unaligned straddle
	}
	for i, r := range ranges {
		if r[0]+r[1] > rows {
			ranges[i][1] = rows - r[0]
		}
	}
	return ranges
}

// TestSeekReadRowsEquivalence is the random-access counterpart of the
// property harness: for every RelativeAlgorithm × bound × adversarial
// field, and for both output widths, ReadRows of every adversarial
// range must be byte-identical to the corresponding slice of a full
// DecompressStreamOpts pass, at the same width, over the same container.
func TestSeekReadRowsEquivalence(t *testing.T) {
	fields := testutil.AdversarialFields(20180704)
	for _, algo := range repro.RelativeAlgorithms() {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			for _, rel := range propertyBounds {
				for i := range fields {
					f := &fields[i]
					name := fmt.Sprintf("%s@%g", f.Name, rel)
					raw := make([]byte, len(f.Data)*8)
					for j, v := range f.Data {
						putLE(raw[j*8:], v)
					}
					chunkRows := (f.Dims[0] + 2) / 3 // ≥2 chunks, same as streamRoundTrip
					if chunkRows < 1 {
						chunkRows = 1
					}
					var comp bytes.Buffer
					if _, err := repro.CompressStreamOpts(bytes.NewReader(raw), &comp, f.Dims, rel, algo,
						repro.WithWorkers(2), repro.WithChunkRows(chunkRows)); err != nil {
						if f.Extreme {
							continue
						}
						t.Errorf("%s: stream compress: %v", name, err)
						continue
					}
					stream := comp.Bytes()

					var full bytes.Buffer
					if _, err := repro.DecompressStreamOpts(bytes.NewReader(stream), &full); err != nil {
						t.Fatalf("%s: full decode: %v", name, err)
					}
					var full32 bytes.Buffer
					if _, err := repro.DecompressStreamOpts(bytes.NewReader(stream), &full32, repro.WithFloat32()); err != nil {
						t.Fatalf("%s: full float32 decode: %v", name, err)
					}

					h, err := repro.OpenStream(bytes.NewReader(stream))
					if err != nil {
						t.Fatalf("%s: OpenStream: %v", name, err)
					}
					rows := h.Rows()
					stride := uint64(h.RowStride())
					for _, r := range seekRanges(rows, uint64(chunkRows)) {
						start, count := r[0], r[1]
						dst := make([]float64, count*stride)
						if err := h.ReadRows(dst, start, count); err != nil {
							t.Errorf("%s: ReadRows[%d,+%d): %v", name, start, count, err)
							continue
						}
						fb := full.Bytes()
						for j := range dst {
							want := getLE(fb[(start*stride+uint64(j))*8:])
							if math.Float64bits(dst[j]) != math.Float64bits(want) {
								t.Fatalf("%s: ReadRows[%d,+%d) element %d = %x, full decode has %x",
									name, start, count, j, math.Float64bits(dst[j]), math.Float64bits(want))
							}
						}
						dst32 := make([]float32, count*stride)
						if err := h.ReadRows32(dst32, start, count); err != nil {
							t.Errorf("%s: ReadRows32[%d,+%d): %v", name, start, count, err)
							continue
						}
						fb32 := full32.Bytes()
						for j := range dst32 {
							want := math.Float32frombits(binary.LittleEndian.Uint32(fb32[(start*stride+uint64(j))*4:]))
							if math.Float32bits(dst32[j]) != math.Float32bits(want) {
								t.Fatalf("%s: ReadRows32[%d,+%d) element %d = %x, full decode has %x",
									name, start, count, j, math.Float32bits(dst32[j]), math.Float32bits(want))
							}
						}
					}
				}
			}
		})
	}
}

// TestPWRPropertyGeneratorDeterministic guards the harness itself: the
// suite must be reproducible run to run, or failures would not be.
func TestPWRPropertyGeneratorDeterministic(t *testing.T) {
	a := testutil.AdversarialFields(7)
	b := testutil.AdversarialFields(7)
	if len(a) != len(b) {
		t.Fatalf("field counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Data) != len(b[i].Data) {
			t.Fatalf("field %d metadata differs", i)
		}
		for j := range a[i].Data {
			if !testutil.SameFloat(a[i].Data[j], b[i].Data[j]) {
				t.Fatalf("field %s element %d differs", a[i].Name, j)
			}
		}
	}
	// The suite must cover the advertised stressors.
	var hasZero, hasNeg, hasSub bool
	lo, hi := 0.0, 0.0
	for i := range a {
		st := stats(a[i].Data)
		hasZero = hasZero || st.zeros > 0
		hasNeg = hasNeg || st.negs > 0
		hasSub = hasSub || st.subs > 0
		if lo == 0 || (st.minMag > 0 && st.minMag < lo) {
			lo = st.minMag
		}
		if st.maxMag > hi {
			hi = st.maxMag
		}
	}
	if !hasZero || !hasNeg || !hasSub {
		t.Errorf("suite missing stressors: zeros=%v negs=%v subnormals=%v", hasZero, hasNeg, hasSub)
	}
	if hi/lo < 1e12 {
		t.Errorf("magnitude skew only %.1e, want >= 1e12", hi/lo)
	}
	// Cover 1D, 2D and 3D geometries.
	ranks := map[int]bool{}
	for i := range a {
		ranks[len(a[i].Dims)] = true
	}
	for _, r := range []int{1, 2, 3} {
		if !ranks[r] {
			t.Errorf("no rank-%d field in the suite", r)
		}
	}
}

type fieldStats struct {
	zeros, negs, subs int
	minMag, maxMag    float64
}

func stats(data []float64) fieldStats {
	var st fieldStats
	const minNormal = 2.2250738585072014e-308
	for _, v := range data {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			continue // non-finite values have no magnitude to skew
		case v == 0:
			st.zeros++
			continue
		case v < 0:
			st.negs++
		}
		m := v
		if m < 0 {
			m = -m
		}
		if m < minNormal {
			st.subs++
			continue // subnormals excluded from the normal-range skew
		}
		if st.minMag == 0 || m < st.minMag {
			st.minMag = m
		}
		if m > st.maxMag {
			st.maxMag = m
		}
	}
	return st
}
