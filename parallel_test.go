package repro

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/testutil"
)

func TestParallelRoundTrip(t *testing.T) {
	defer testutil.NoLeak(t)()
	fields := datagen.NYX(24, 11)
	f := fields[0]
	rel := 1e-2
	// 24 rows: one chunk, two, three, a clipped last chunk, one row each.
	for _, chunkRows := range []int{24, 12, 8, 7, 1} {
		buf, err := CompressParallelOpts(f.Data, f.Dims, rel, SZT,
			WithWorkers(4), WithChunkRows(chunkRows))
		if err != nil {
			t.Fatalf("chunkRows=%d: %v", chunkRows, err)
		}
		if !IsStreamContainer(buf) {
			t.Fatal("not detected as a stream container")
		}
		dec, dims, err := DecompressAny(buf, WithWorkers(4))
		if err != nil {
			t.Fatalf("chunkRows=%d: %v", chunkRows, err)
		}
		if !grid.EqualDims(dims, f.Dims) {
			t.Fatalf("dims %v", dims)
		}
		st, err := metrics.RelError(f.Data, dec, rel)
		if err != nil {
			t.Fatal(err)
		}
		if st.Max > rel {
			t.Fatalf("chunkRows=%d: max rel %g > %g", chunkRows, st.Max, rel)
		}
	}
}

// TestParallelMoreChunksThanRows asks for chunks longer than the field:
// the chunk-row count clamps to the three rows there are.
func TestParallelMoreChunksThanRows(t *testing.T) {
	defer testutil.NoLeak(t)()
	data := []float64{1, 2, 3, 4, 5, 6}
	buf, err := CompressParallelOpts(data, []int{3, 2}, 0.01, SZT, WithChunkRows(100))
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := DecompressAny(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(dec[i]-data[i])/data[i] > 0.01 {
			t.Fatalf("index %d", i)
		}
	}
}

func TestParallelAllAlgorithms(t *testing.T) {
	defer testutil.NoLeak(t)()
	fields := datagen.NYX(16, 12)
	f := fields[0]
	rel := 0.05
	for _, algo := range RelativeAlgorithms() {
		buf, err := CompressParallelOpts(f.Data, f.Dims, rel, algo, WithChunkRows(4))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		dec, _, err := DecompressAny(buf)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		st, err := metrics.RelError(f.Data, dec, rel)
		if err != nil {
			t.Fatal(err)
		}
		if algo != ZFPP && st.Max > rel {
			t.Fatalf("%v: max rel %g", algo, st.Max)
		}
	}
}

func TestParallelMatchesSerialBound(t *testing.T) {
	// Chunked compression must cost only a modest ratio penalty once the
	// chunks are large enough to amortize their per-chunk code tables.
	fields := datagen.NYX(48, 13)
	f := fields[0]
	rel := 1e-2
	serial, err := Compress(f.Data, f.Dims, rel, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CompressParallelOpts(f.Data, f.Dims, rel, SZT, WithChunkRows(12))
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(par)) > float64(len(serial))*1.25 {
		t.Fatalf("chunking penalty too high: %d vs %d", len(par), len(serial))
	}
}

func TestDecompressAnyPlainStream(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	buf, err := Compress(data, []int{4}, 0.01, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := DecompressAny(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 4 {
		t.Fatal("wrong length")
	}
}

// TestDecompressAnyAllocation pins what DecompressAny allocates for a
// chunked container: at most what a full-range ReadRows into a
// preallocated slice allocates for the same chunks, plus 1.25x the
// field bytes for the result it returns.
func TestDecompressAnyAllocation(t *testing.T) {
	defer testutil.NoLeak(t)()
	f := datagen.CESMATM(1024, 1024, 3)[0]
	buf, err := CompressParallelOpts(f.Data, f.Dims, 1e-2, SZT, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	h, err := OpenStream(bytes.NewReader(buf), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if h.Chunks() != 4 {
		t.Fatalf("%d chunks, want the default chunking's 4", h.Chunks())
	}
	dst := make([]float64, len(f.Data))
	readRows := allocatedBy(func() { err = h.ReadRows(dst, 0, h.Rows()) })
	if err != nil {
		t.Fatal(err)
	}
	var dec []float64
	decodeAny := allocatedBy(func() { dec, _, err = DecompressAny(buf, WithWorkers(1)) })
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(dst) {
		t.Fatalf("DecompressAny decoded %d values, want %d", len(dec), len(dst))
	}
	for i := range dec {
		if math.Float64bits(dec[i]) != math.Float64bits(dst[i]) {
			t.Fatalf("DecompressAny and ReadRows differ at element %d", i)
		}
	}
	fieldBytes := uint64(len(f.Data)) * 8
	limit := readRows + fieldBytes*5/4
	t.Logf("DecompressAny allocated %d bytes; ReadRows %d; limit %d", decodeAny, readRows, limit)
	if testutil.RaceEnabled {
		t.Log("race detector: skipping the allocation assertion")
		return
	}
	if decodeAny > limit {
		t.Errorf("DecompressAny allocated %d bytes for a %d-byte field, over ReadRows' %d plus 1.25x the field (%d)",
			decodeAny, fieldBytes, readRows, limit)
	}
}

func TestParallelCorrupt(t *testing.T) {
	defer testutil.NoLeak(t)()
	fields := datagen.NYX(16, 14)
	f := fields[0]
	buf, err := CompressParallelOpts(f.Data, f.Dims, 0.01, SZT, WithChunkRows(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 3, 10, len(buf) / 2} {
		if _, _, err := DecompressAny(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 100; i++ {
		mut := append([]byte(nil), buf...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		_, _, _ = DecompressAny(mut) // must not panic
	}
}

func TestChunkStarts(t *testing.T) {
	s := chunkStarts(10, 3)
	if s[0] != 0 || s[3] != 10 {
		t.Fatalf("boundaries %v", s)
	}
	total := 0
	for c := 0; c < 3; c++ {
		w := s[c+1] - s[c]
		if w < 3 || w > 4 {
			t.Fatalf("uneven chunk %d: %v", c, s)
		}
		total += w
	}
	if total != 10 {
		t.Fatalf("chunks don't cover: %v", s)
	}
}

func BenchmarkCompressParallel4(b *testing.B) {
	fields := datagen.NYX(48, 16)
	f := fields[0]
	b.SetBytes(int64(f.Bytes()))
	for i := 0; i < b.N; i++ {
		if _, err := CompressParallelOpts(f.Data, f.Dims, 1e-2, SZT,
			WithWorkers(4), WithChunkRows(6)); err != nil {
			b.Fatal(err)
		}
	}
}
