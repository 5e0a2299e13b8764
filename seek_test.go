package repro

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/streamfmt"
	"repro/internal/testutil"
)

// Tests for the seekable decode subsystem (seek.go): OpenStream must
// serve any row range byte-identically to the full-stream decode while
// fetching only the touched chunk extents, enforce limits before
// allocation, honor cancellation without leaking, and refuse a
// container whose sealing index cannot be verified.

// seekContainer compresses data (shape dims) into a stream container
// with the given chunking and returns the container bytes.
func seekContainer(t testing.TB, data []float64, dims []int, chunkRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(data)), &buf, dims, 1e-3, SZT,
		WithWorkers(2), WithChunkRows(chunkRows)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// countingReadSeeker counts the bytes actually fetched from the
// underlying source, so locality tests can prove a range read does not
// scan the container.
type countingReadSeeker struct {
	r *bytes.Reader
	n int64
}

func (c *countingReadSeeker) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReadSeeker) Seek(offset int64, whence int) (int64, error) {
	return c.r.Seek(offset, whence)
}

func seekField(n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		data[i] = 40*math.Cos(float64(i)/7) + 90
	}
	return data
}

func TestOpenStreamBasics(t *testing.T) {
	defer testutil.NoLeak(t)()
	data := seekField(28 * 5)
	dims := []int{28, 5}
	stream := seekContainer(t, data, dims, 3) // 10 chunks, last clipped to 1 row
	h, err := OpenStream(bytes.NewReader(stream), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if h.Rows() != 28 || h.Chunks() != 10 || h.RowStride() != 5 {
		t.Fatalf("geometry: rows=%d chunks=%d stride=%d", h.Rows(), h.Chunks(), h.RowStride())
	}
	if d := h.Dims(); len(d) != 2 || d[0] != 28 || d[1] != 5 {
		t.Fatalf("dims: %v", d)
	}
	if h.Algorithm() != SZT {
		t.Fatalf("algorithm: %v", h.Algorithm())
	}
	full := fromLE(rawLEOfDecoded(t, stream))
	got := make([]float64, len(full))
	if err := h.ReadRows(got, 0, 28); err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if math.Float64bits(got[i]) != math.Float64bits(full[i]) {
			t.Fatalf("full-range ReadRows differs from DecompressStreamOpts at %d: %g vs %g", i, got[i], full[i])
		}
	}
	st := h.Stats()
	if st.Chunks != 10 || st.BytesOut != int64(len(full))*8 {
		t.Fatalf("stats after full read: %+v", st)
	}
}

// TestReadRowsAdversarialRanges sweeps range shapes against the full
// decode: chunk-aligned, chunk-straddling, first and last row, single
// row, full span, and empty.
func TestReadRowsAdversarialRanges(t *testing.T) {
	defer testutil.NoLeak(t)()
	data := seekField(28 * 5)
	dims := []int{28, 5}
	stream := seekContainer(t, data, dims, 3)
	full := fromLE(rawLEOfDecoded(t, stream))
	h, err := OpenStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	stride := h.RowStride()
	ranges := []struct{ start, count uint64 }{
		{0, 3}, {3, 3}, {24, 3}, // chunk-aligned
		{2, 3}, {1, 9}, {5, 20}, // straddling
		{0, 1}, {27, 1}, {13, 1}, // first/last/single
		{0, 28},                 // full span
		{0, 0}, {28, 0}, {9, 0}, // empty
	}
	for _, r := range ranges {
		dst := make([]float64, r.count*uint64(stride))
		for i := range dst {
			dst[i] = -1e300 // poison: untouched elements must not leak through
		}
		if err := h.ReadRows(dst, r.start, r.count); err != nil {
			t.Fatalf("[%d,+%d): %v", r.start, r.count, err)
		}
		want := full[r.start*uint64(stride) : (r.start+r.count)*uint64(stride)]
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("[%d,+%d): element %d = %g, want %g", r.start, r.count, i, dst[i], want[i])
			}
		}
	}
}

func TestReadRowsArgumentErrors(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream := seekContainer(t, seekField(12*4), []int{12, 4}, 5)
	h, err := OpenStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 12*4)
	if err := h.ReadRows(dst, 13, 0); err == nil {
		t.Error("start past the field accepted")
	}
	if err := h.ReadRows(dst, 8, 5); err == nil {
		t.Error("range overrunning the field accepted")
	}
	if err := h.ReadRows(dst[:3], 0, 1); err == nil {
		t.Error("short destination accepted")
	}
	// A range that wraps uint64 must not pass the bounds check.
	if err := h.ReadRows(dst, 2, ^uint64(0)); err == nil {
		t.Error("wrapping count accepted")
	}
}

// TestReadRowsLocality proves the random-access promise: a 1% row range
// of a 10k-chunk container fetches less than twice its own chunk
// extents — not the container.
func TestReadRowsLocality(t *testing.T) {
	defer testutil.NoLeak(t)()
	rows := 10000
	if testutil.RaceEnabled {
		rows = 2000 // same sub-1% geometry, affordable under the race detector
	}
	const stride = 4
	data := seekField(rows * stride)
	stream := seekContainer(t, data, []int{rows, stride}, 1) // one chunk per row
	ix, err := streamfmt.OpenIndex(bytes.NewReader(stream), streamfmt.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Chunks() != rows {
		t.Fatalf("chunks = %d, want %d", ix.Chunks(), rows)
	}

	src := &countingReadSeeker{r: bytes.NewReader(stream)}
	h, err := OpenStream(src)
	if err != nil {
		t.Fatal(err)
	}
	start, count := uint64(rows)*2/5, uint64(rows)/100 // a 1% range, mid-container
	src.n = 0                                          // count only what the range read fetches
	dst := make([]float64, count*stride)
	if err := h.ReadRows(dst, start, count); err != nil {
		t.Fatal(err)
	}
	extent := ix.ExtentBytes(int(start), int(start+count))
	if src.n > 2*extent {
		t.Errorf("1%% range read fetched %d bytes, more than 2x its %d-byte chunk extents", src.n, extent)
	}
	if src.n >= int64(len(stream))/10 {
		t.Errorf("1%% range read fetched %d of %d container bytes — that is a scan, not a seek", src.n, len(stream))
	}
	if st := h.Stats(); st.Chunks != int(count) || st.BytesIn != extent {
		t.Errorf("stats: %d chunks / %d bytes in, want %d / %d", st.Chunks, st.BytesIn, count, extent)
	}
	// Spot-check correctness against the in-memory slice.
	full := fromLE(rawLEOfDecoded(t, stream))
	for i := range dst {
		if math.Float64bits(dst[i]) != math.Float64bits(full[int(start)*stride+i]) {
			t.Fatalf("element %d differs", i)
		}
	}
}

func TestReadRowsCancellation(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream := seekContainer(t, seekField(64*8), []int{64, 8}, 2)
	h, err := OpenStream(bytes.NewReader(stream), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]float64, 64*8)
	if err := h.ReadRowsCtx(ctx, dst, 0, 64); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled read: err = %v, want context.Canceled", err)
	}
	// A handle opened with a cancelled default context refuses reads too.
	h2, err := OpenStream(bytes.NewReader(stream), WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.ReadRows(dst, 0, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("handle-context read: err = %v, want context.Canceled", err)
	}
}

func TestOpenStreamLimits(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream := seekContainer(t, seekField(16*4), []int{16, 4}, 4)
	if _, err := OpenStream(bytes.NewReader(stream), WithLimits(&DecodeLimits{MaxElements: 8})); !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("MaxElements: err = %v", err)
	}
	if _, err := OpenStream(bytes.NewReader(stream), WithLimits(&DecodeLimits{MaxChunkBytes: 3})); !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("MaxChunkBytes: err = %v", err)
	}
	if _, err := OpenStream(bytes.NewReader(stream), WithLimits(&DecodeLimits{MaxElements: 1 << 20, MaxChunkBytes: 1 << 20})); err != nil {
		t.Errorf("generous limits rejected a valid container: %v", err)
	}
}

// TestOpenStreamUnverifiableIndex: unlike salvage, the seekable path
// must refuse — with a typed error — any container whose sealing index
// does not verify, rather than silently scanning the prefix.
func TestOpenStreamUnverifiableIndex(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream := seekContainer(t, seekField(16*4), []int{16, 4}, 4)
	for _, cut := range []int{1, 2, 5} { // shear off (part of) the index frame
		trunc := stream[:len(stream)-cut]
		if _, err := OpenStream(bytes.NewReader(trunc)); !errors.Is(err, ErrCorrupted) {
			t.Errorf("truncated by %d: err = %v, want ErrCorrupted", cut, err)
		}
	}
	mut := append([]byte(nil), stream...) // break the index CRC
	mut[len(mut)-1] ^= 0xFF
	if _, err := OpenStream(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupted) {
		t.Errorf("index CRC damage: err = %v, want ErrCorrupted", err)
	}
	// A container too short for its declared chunk count is truncation.
	hdr := stream[:7]
	if _, err := OpenStream(bytes.NewReader(hdr)); !errors.Is(err, ErrCorrupted) {
		t.Errorf("header-only prefix: err = %v, want ErrCorrupted", err)
	}
	// Non-stream containers are ErrUnsupportedFormat.
	plain, err := Compress(seekField(8), []int{8}, 1e-2, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStream(bytes.NewReader(plain)); !errors.Is(err, ErrUnsupportedFormat) {
		t.Errorf("plain container: err = %v, want ErrUnsupportedFormat", err)
	}
}

// TestReadRowsRepeated exercises the handle across many sequential
// reads (stats accumulate; buffers recycle; seeks rewind correctly).
func TestReadRowsRepeated(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream := seekContainer(t, seekField(30*3), []int{30, 3}, 4)
	full := fromLE(rawLEOfDecoded(t, stream))
	h, err := OpenStream(bytes.NewReader(stream), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 30*3)
	for pass := 0; pass < 3; pass++ {
		for start := uint64(0); start < 30; start += 7 {
			count := uint64(5)
			if 30-start < count {
				count = 30 - start
			}
			if err := h.ReadRows(dst[:count*3], start, count); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < count*3; i++ {
				if math.Float64bits(dst[i]) != math.Float64bits(full[start*3+i]) {
					t.Fatalf("pass %d [%d,+%d): element %d differs", pass, start, count, i)
				}
			}
		}
	}
}

// TestStreamIndexExtents pins the index→offset arithmetic itself: the
// extents must tile the container between header and index exactly.
func TestStreamIndexExtents(t *testing.T) {
	stream := seekContainer(t, seekField(10*2), []int{10, 2}, 3)
	ix, err := streamfmt.OpenIndex(bytes.NewReader(stream), streamfmt.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	off, _ := ix.FrameExtent(0)
	if off != ix.HeaderLen {
		t.Errorf("chunk 0 starts at %d, header ends at %d", off, ix.HeaderLen)
	}
	for i := 0; i < ix.Chunks(); i++ {
		lo, hi := ix.FrameExtent(i)
		if hi <= lo || hi > ix.IndexOff {
			t.Errorf("chunk %d extent [%d,%d) out of bounds (index at %d)", i, lo, hi, ix.IndexOff)
		}
		if i > 0 {
			if _, prevHi := ix.FrameExtent(i - 1); prevHi != lo {
				t.Errorf("gap between chunk %d and %d", i-1, i)
			}
		}
		if stream[lo] != 0x01 { // tagChunk
			t.Errorf("chunk %d offset %d does not land on a chunk tag (byte 0x%02x)", i, lo, stream[lo])
		}
	}
	if _, last := ix.FrameExtent(ix.Chunks() - 1); last != ix.IndexOff {
		t.Errorf("last chunk ends at %d, index begins at %d", last, ix.IndexOff)
	}
	if ix.ExtentBytes(0, ix.Chunks()) != ix.IndexOff-ix.HeaderLen {
		t.Errorf("ExtentBytes(all) = %d, want %d", ix.ExtentBytes(0, ix.Chunks()), ix.IndexOff-ix.HeaderLen)
	}
	if stream[ix.IndexOff] != 0x02 { // tagIndex
		t.Errorf("IndexOff %d does not land on the index tag", ix.IndexOff)
	}
}

// An io.ReadSeeker whose Seek fails must surface its own error, not a
// relabeled corruption.
type failSeeker struct {
	io.ReadSeeker
	fail bool
}

var errSeek = errors.New("seek refused")

func (f *failSeeker) Seek(offset int64, whence int) (int64, error) {
	if f.fail {
		return 0, errSeek
	}
	return f.ReadSeeker.Seek(offset, whence)
}

func TestReadRowsSeekFailure(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream := seekContainer(t, seekField(12*2), []int{12, 2}, 3)
	fs := &failSeeker{ReadSeeker: bytes.NewReader(stream)}
	h, err := OpenStream(fs)
	if err != nil {
		t.Fatal(err)
	}
	fs.fail = true
	dst := make([]float64, 12*2)
	if err := h.ReadRows(dst, 0, 12); !errors.Is(err, errSeek) {
		t.Fatalf("err = %v, want the seeker's own error", err)
	}
}
