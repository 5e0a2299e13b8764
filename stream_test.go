package repro

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/testutil"
)

// rawLE serializes a field as the raw little-endian float64 layout the
// streaming API reads and writes.
func rawLE(data []float64) []byte {
	raw := make([]byte, len(data)*8)
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	return raw
}

func fromLE(raw []byte) []float64 {
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out
}

// TestStreamRoundTrip pushes 1D/2D/3D fields through CompressStreamOpts
// and DecompressStreamOpts for every relative-bound algorithm and checks
// the advertised error guarantees survive the chunked pipeline.
func TestStreamRoundTrip(t *testing.T) {
	defer testutil.NoLeak(t)()
	fields := []struct {
		name string
		dims []int
	}{
		{"1d", []int{600}},
		{"2d", []int{24, 32}},
		{"3d", []int{12, 10, 8}},
	}
	const rel = 1e-3
	for _, fc := range fields {
		n := 1
		for _, d := range fc.dims {
			n *= d
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = 50*math.Sin(float64(i)/9) + 75
		}
		raw := rawLE(data)
		for _, algo := range RelativeAlgorithms() {
			var comp bytes.Buffer
			st, err := CompressStreamOpts(bytes.NewReader(raw), &comp, fc.dims, rel, algo,
				WithWorkers(3), WithChunkRows((fc.dims[0]+3)/4))
			if err != nil {
				t.Fatalf("%s %v: compress: %v", fc.name, algo, err)
			}
			if st.BytesIn != int64(len(raw)) {
				t.Errorf("%s %v: BytesIn %d want %d", fc.name, algo, st.BytesIn, len(raw))
			}
			if st.BytesOut != int64(comp.Len()) {
				t.Errorf("%s %v: BytesOut %d want %d", fc.name, algo, st.BytesOut, comp.Len())
			}
			var dec bytes.Buffer
			dst, err := DecompressStreamOpts(bytes.NewReader(comp.Bytes()), &dec)
			if err != nil {
				t.Fatalf("%s %v: decompress: %v", fc.name, algo, err)
			}
			if dst.Chunks != st.Chunks {
				t.Errorf("%s %v: decoded %d chunks, encoded %d", fc.name, algo, dst.Chunks, st.Chunks)
			}
			got := fromLE(dec.Bytes())
			if len(got) != len(data) {
				t.Fatalf("%s %v: decoded %d values, want %d", fc.name, algo, len(got), len(data))
			}
			stats, err := metrics.RelError(data, got, rel)
			if err != nil {
				t.Fatal(err)
			}
			if algo == ZFPP {
				// ZFP_P does not guarantee the bound (the paper's "*").
				if stats.BoundedFrac < 0.5 {
					t.Errorf("%s %v: bounded only %.3f", fc.name, algo, stats.BoundedFrac)
				}
				continue
			}
			if stats.Max > rel*(1+1e-9) {
				t.Errorf("%s %v: max rel err %g > %g", fc.name, algo, stats.Max, rel)
			}
		}
	}
}

// TestStreamMatchesParallel asserts that the in-memory entry point is
// the stream writer: over the same raw bytes and options,
// CompressParallelOpts output is byte-identical to CompressStreamOpts
// output, and OpenStream serves rows from it that match the one-shot
// and streaming decodes.
func TestStreamMatchesParallel(t *testing.T) {
	defer testutil.NoLeak(t)()
	f := datagen.NYX(16, 11)[0] // 16^3, 256 elements per row
	const rel = 1e-2
	cases := []struct {
		name string
		opts []StreamOption
	}{
		{"defaults", nil},
		{"chunk-rows+workers", []StreamOption{WithChunkRows(4), WithWorkers(3)}},
		{"parity+verify", []StreamOption{WithChunkRows(3), WithParity(2), WithVerifyOnWrite()}},
		{"memory-budget", []StreamOption{WithMemoryBudget(64 << 10)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			par, err := CompressParallelOpts(f.Data, f.Dims, rel, SZT, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var comp bytes.Buffer
			if _, err := CompressStreamOpts(bytes.NewReader(rawLE(f.Data)), &comp, f.Dims, rel, SZT, tc.opts...); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(par, comp.Bytes()) {
				t.Fatalf("CompressParallelOpts wrote %d bytes that differ from CompressStreamOpts' %d", len(par), comp.Len())
			}
			var dec bytes.Buffer
			if _, err := DecompressStreamOpts(bytes.NewReader(par), &dec); err != nil {
				t.Fatal(err)
			}
			sdec := fromLE(dec.Bytes())
			adec, _, err := DecompressAny(par)
			if err != nil {
				t.Fatal(err)
			}
			h, err := OpenStream(bytes.NewReader(par))
			if err != nil {
				t.Fatal(err)
			}
			stride := h.RowStride()
			rows := make([]float64, 5*stride)
			if err := h.ReadRows(rows, 6, 5); err != nil {
				t.Fatal(err)
			}
			if len(sdec) != len(f.Data) || len(adec) != len(f.Data) {
				t.Fatalf("decoded %d (stream) and %d (DecompressAny) values, want %d", len(sdec), len(adec), len(f.Data))
			}
			for i := range sdec {
				if !testutil.SameFloat(adec[i], sdec[i]) {
					t.Fatalf("DecompressAny element %d differs from the streaming decode", i)
				}
			}
			for i := range rows {
				if !testutil.SameFloat(rows[i], sdec[6*stride+i]) {
					t.Fatalf("ReadRows element %d differs from the streaming decode", i)
				}
			}
		})
	}
}

// TestStreamDeterministic asserts byte-identical container output across
// runs and worker counts (frames are emitted in field order regardless
// of completion order).
func TestStreamDeterministic(t *testing.T) {
	defer testutil.NoLeak(t)()
	f := datagen.NYX(16, 3)[0]
	raw := rawLE(f.Data)
	var a, b bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(raw), &a, f.Dims, 1e-2, SZT, WithWorkers(4), WithChunkRows(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := CompressStreamOpts(bytes.NewReader(raw), &b, f.Dims, 1e-2, SZT, WithWorkers(1), WithChunkRows(3)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("stream container depends on worker count")
	}
}

// TestStreamInputErrors covers compress-side failure modes: truncated
// input, bad geometry, absolute-bound algorithms, bad bounds.
func TestStreamInputErrors(t *testing.T) {
	defer testutil.NoLeak(t)()
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i + 1)
	}
	raw := rawLE(data)
	var sink bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(raw[:100]), &sink, []int{64}, 1e-2, SZT); err == nil {
		t.Error("short input: want error")
	} else if !strings.Contains(err.Error(), "short stream input") {
		t.Errorf("short input: unexpected error %v", err)
	}
	if _, err := CompressStreamOpts(bytes.NewReader(raw), &sink, []int{0}, 1e-2, SZT); err == nil {
		t.Error("zero dim: want error")
	}
	if _, err := CompressStreamOpts(bytes.NewReader(raw), &sink, []int{64}, 1e-2, SZABS); !errors.Is(err, ErrNeedsAbsolute) {
		t.Errorf("absolute algo: err = %v, want ErrNeedsAbsolute", err)
	}
	// An algorithm or bound the chunks could never be compressed under is
	// refused before the stream header reaches the sink.
	for _, c := range []struct {
		algo  Algorithm
		bound float64
	}{
		{SZABS, 1e-2}, {ZFPRATE, 1e-2}, {FPZIP32, 1e-2}, {Algorithm(77), 1e-2},
		{SZT, 2}, {SZT, 0}, {FPZIP, -1},
	} {
		var sink bytes.Buffer
		if _, err := CompressStreamOpts(bytes.NewReader(raw), &sink, []int{64}, c.bound, c.algo); err == nil {
			t.Errorf("%v at bound %g: want error", c.algo, c.bound)
		}
		if sink.Len() != 0 {
			t.Errorf("%v at bound %g: %d bytes reached the sink before the error", c.algo, c.bound, sink.Len())
		}
	}
	// A failing writer must abort the pipeline with an error, not hang.
	ew := &errAfterWriter{limit: 10}
	if _, err := CompressStreamOpts(bytes.NewReader(raw), ew, []int{64}, 1e-2, SZT, WithChunkRows(4)); err == nil {
		t.Error("failing sink: want error")
	}
}

type errAfterWriter struct{ limit, n int }

func (w *errAfterWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > w.limit {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

// TestStreamDecodeErrors covers decode-side robustness: truncations at
// every prefix length and single-byte corruption must error out (or
// decode consistently), never panic or hang.
func TestStreamDecodeErrors(t *testing.T) {
	defer testutil.NoLeak(t)()
	f := datagen.NYX(8, 5)[0]
	var comp bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(f.Data)), &comp, f.Dims, 1e-2, SZT, WithChunkRows(2)); err != nil {
		t.Fatal(err)
	}
	stream := comp.Bytes()
	for cut := 0; cut < len(stream); cut += 7 {
		if _, err := DecompressStreamOpts(bytes.NewReader(stream[:cut]), io.Discard); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// Flipping any byte must be caught by a CRC, a shape check, or the
	// inner decoder.
	for pos := 0; pos < len(stream); pos += 11 {
		mut := append([]byte(nil), stream...)
		mut[pos] ^= 0x4
		var out bytes.Buffer
		if _, err := DecompressStreamOpts(bytes.NewReader(mut), &out); err == nil {
			if !bytes.Equal(out.Bytes(), rawLEOfDecoded(t, stream)) {
				t.Fatalf("corruption at %d silently changed output", pos)
			}
		}
	}
}

func rawLEOfDecoded(t *testing.T, stream []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if _, err := DecompressStreamOpts(bytes.NewReader(stream), &out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// synthReader procedurally generates a raw float64 field without ever
// materializing it, so the bounded-memory test's input side is O(1).
type synthReader struct {
	remaining int64 // bytes left to produce
	i         int64 // absolute element index
}

func (s *synthReader) Read(p []byte) (int, error) {
	if s.remaining <= 0 {
		return 0, io.EOF
	}
	n := int64(len(p)) - int64(len(p))%8
	if n > s.remaining {
		n = s.remaining
	}
	if n == 0 {
		return 0, io.EOF
	}
	for off := int64(0); off < n; off += 8 {
		v := 40*math.Sin(float64(s.i)/17) + 90
		binary.LittleEndian.PutUint64(p[off:], math.Float64bits(v))
		s.i++
	}
	s.remaining -= n
	return int(n), nil
}

// TestStreamBoundedMemory streams a field 16× larger than the pipeline's
// chunk budget and asserts the bounded-memory invariant: the pipeline
// allocates at most workers+2 chunk buffers (the deterministic proof)
// and the sampled heap high-water mark stays far below the field size
// (the end-to-end check).
func TestStreamBoundedMemory(t *testing.T) {
	defer testutil.NoLeak(t)()
	const (
		rowStride = 4096 // floats per row: 32 KiB
		rows      = 1024 // field: 32 MiB
		chunkRows = 8    // chunk: 256 KiB
		workers   = 2
	)
	fieldBytes := int64(rows * rowStride * 8)
	budgetBytes := int64((workers + 2) * chunkRows * rowStride * 8)
	if fieldBytes < 8*budgetBytes {
		t.Fatalf("test geometry broken: field %d < 8x budget %d", fieldBytes, budgetBytes)
	}

	var heapMax uint64
	stopSampling := make(chan struct{})
	samplerDone := make(chan struct{})
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	go func() {
		defer close(samplerDone)
		var m runtime.MemStats
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			runtime.ReadMemStats(&m)
			if m.HeapAlloc > heapMax {
				heapMax = m.HeapAlloc
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	src := &synthReader{remaining: fieldBytes}
	cw := &countingWriter{w: io.Discard}
	st, err := CompressStreamOpts(src, cw, []int{rows, rowStride}, 1e-2, SZT,
		WithWorkers(workers), WithChunkRows(chunkRows))
	close(stopSampling)
	<-samplerDone
	if err != nil {
		t.Fatal(err)
	}

	if st.Chunks != rows/chunkRows {
		t.Errorf("chunks %d want %d", st.Chunks, rows/chunkRows)
	}
	if st.BytesIn != fieldBytes {
		t.Errorf("BytesIn %d want %d", st.BytesIn, fieldBytes)
	}
	if st.BuffersAllocated > workers+2 {
		t.Errorf("allocated %d chunk buffers, bound is workers+2 = %d", st.BuffersAllocated, workers+2)
	}
	if st.MaxInFlight > workers+2 {
		t.Errorf("max in-flight %d, bound is workers+2 = %d", st.MaxInFlight, workers+2)
	}
	resident := int64(st.BuffersAllocated) * chunkRows * rowStride * 8
	if resident > budgetBytes {
		t.Errorf("resident chunk-buffer bytes %d exceed budget %d", resident, budgetBytes)
	}
	if testutil.RaceEnabled {
		t.Log("race detector: skipping heap high-water assertion")
		return
	}
	growth := int64(heapMax) - int64(base.HeapAlloc)
	if growth > fieldBytes/2 {
		t.Errorf("heap grew by %d bytes streaming a %d-byte field; pipeline is not bounded-memory",
			growth, fieldBytes)
	}
	t.Logf("field %d MiB, heap high-water growth %d KiB, %d chunk buffers",
		fieldBytes>>20, growth>>10, st.BuffersAllocated)
}

// TestStreamStatsObservability sanity-checks the per-stage counters.
func TestStreamStatsObservability(t *testing.T) {
	defer testutil.NoLeak(t)()
	f := datagen.NYX(16, 9)[0]
	var comp bytes.Buffer
	st, err := CompressStreamOpts(bytes.NewReader(rawLE(f.Data)), &comp, f.Dims, 1e-2, SZT, WithChunkRows(4))
	if err != nil {
		t.Fatal(err)
	}
	if st.Chunks != 4 {
		t.Errorf("chunks %d want 4", st.Chunks)
	}
	if st.CodecWall <= 0 || st.MaxInFlight < 1 || st.BuffersAllocated < 1 {
		t.Errorf("implausible stats: %+v", st)
	}
	dst, err := DecompressStreamOpts(bytes.NewReader(comp.Bytes()), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if dst.BytesIn != int64(comp.Len()) {
		t.Errorf("decode BytesIn %d want %d", dst.BytesIn, comp.Len())
	}
	if dst.BytesOut != int64(len(f.Data)*8) {
		t.Errorf("decode BytesOut %d want %d", dst.BytesOut, len(f.Data)*8)
	}

	// The decode paths hold the same in-flight bound as compress: a
	// 300-chunk container never has more than workers+2 chunks alive.
	g := datagen.CESMATM(300, 600, 11)[0]
	var many bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(g.Data)), &many, g.Dims, 1e-2, SZT, WithChunkRows(1)); err != nil {
		t.Fatal(err)
	}
	decodePaths := []struct {
		name string
		run  func(workers int) (StreamStats, error)
	}{
		{"DecompressStreamOpts", func(workers int) (StreamStats, error) {
			st, err := DecompressStreamOpts(bytes.NewReader(many.Bytes()), io.Discard, WithWorkers(workers))
			if err != nil {
				return StreamStats{}, err
			}
			return *st, nil
		}},
		{"ReadRows", func(workers int) (StreamStats, error) {
			h, err := OpenStream(bytes.NewReader(many.Bytes()), WithWorkers(workers))
			if err != nil {
				return StreamStats{}, err
			}
			err = h.ReadRows(make([]float64, len(g.Data)), 0, h.Rows())
			return h.Stats(), err
		}},
	}
	for _, p := range decodePaths {
		for _, workers := range []int{1, 2, 4} {
			st, err := p.run(workers)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", p.name, workers, err)
			}
			if st.Chunks != 300 || st.MaxInFlight < 1 || st.MaxInFlight > workers+2 {
				t.Errorf("%s at %d workers: %d chunks, max in-flight %d; want 300 chunks and at most workers+2 = %d in flight",
					p.name, workers, st.Chunks, st.MaxInFlight, workers+2)
			}
		}
	}
}

// TestArchiveHoldsStreamContainer checks a stream container is a valid
// archive member and decodes through ArchiveReader.Field.
func TestArchiveHoldsStreamContainer(t *testing.T) {
	f := datagen.NYX(8, 13)[0]
	var comp bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(f.Data)), &comp, f.Dims, 1e-2, ZFPT, WithChunkRows(3)); err != nil {
		t.Fatal(err)
	}
	var archive bytes.Buffer
	w, err := NewArchiveStreamWriter(&archive)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddCompressed("density", comp.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenArchive(archive.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	dec, dims, err := r.Field("density")
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != len(f.Dims) || len(dec) != len(f.Data) {
		t.Fatalf("archived stream decoded to %v/%d values", dims, len(dec))
	}
	stats, err := metrics.RelError(f.Data, dec, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Max > 1e-2*(1+1e-9) {
		t.Errorf("bound violated through archive: %g", stats.Max)
	}
}
