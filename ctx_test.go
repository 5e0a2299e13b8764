package repro

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/testutil"
)

// Cancellation tests: every Ctx entry point must return the context's
// error when cancelled (before or during the work) and tear down its
// worker pool completely — zero extra goroutines after settle, which
// testutil.NoLeak asserts at test end.

// cancelAfterReader cancels a context once n bytes have been delivered,
// then keeps serving data — so any further progress is the pipeline's
// choice, not starvation.
type cancelAfterReader struct {
	r      io.Reader
	n      int64
	cancel context.CancelFunc
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.n > 0 {
		if c.n -= int64(n); c.n <= 0 {
			c.cancel()
		}
	}
	return n, err
}

func bigField() ([]float64, []int) {
	data := make([]float64, 8192)
	for i := range data {
		data[i] = float64(i%613) + 2
	}
	return data, []int{512, 16}
}

func TestCompressStreamCtxPreCancelled(t *testing.T) {
	defer testutil.NoLeak(t)()
	data, dims := bigField()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sink bytes.Buffer
	_, err := CompressStreamOpts(bytes.NewReader(rawLE(data)), &sink, dims, 1e-2, SZT,
		WithWorkers(2), WithChunkRows(8), WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCompressStreamCtxMidStream(t *testing.T) {
	defer testutil.NoLeak(t)()
	data, dims := bigField()
	raw := rawLE(data)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfterReader{r: bytes.NewReader(raw), n: int64(len(raw) / 4), cancel: cancel}
	var sink bytes.Buffer
	stats, err := CompressStreamOpts(src, &sink, dims, 1e-2, SZT,
		WithWorkers(2), WithChunkRows(8), WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.BytesIn >= int64(len(raw)) {
		t.Errorf("pipeline consumed the whole input (%d bytes) after cancellation", stats.BytesIn)
	}
}

func TestDecompressStreamCtxMidStream(t *testing.T) {
	defer testutil.NoLeak(t)()
	data, dims := bigField()
	var comp bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(data)), &comp, dims, 1e-2, SZT,
		WithWorkers(2), WithChunkRows(8)); err != nil {
		t.Fatal(err)
	}
	stream := comp.Bytes()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecompressStreamOpts(bytes.NewReader(stream), io.Discard, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfterReader{r: bytes.NewReader(stream), n: int64(len(stream) / 4), cancel: cancel}
	stats, err := DecompressStreamOpts(src, io.Discard, WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream: err = %v, want context.Canceled", err)
	}
	if stats.BytesIn >= int64(len(stream)) {
		t.Errorf("pipeline consumed the whole container (%d bytes) after cancellation", stats.BytesIn)
	}
}

func TestParallelCtxCancelled(t *testing.T) {
	defer testutil.NoLeak(t)()
	data, dims := bigField()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompressParallelOpts(data, dims, 1e-2, SZT,
		WithChunkRows(32), WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("compress: err = %v, want context.Canceled", err)
	}
	plain, err := Compress(data, dims, 1e-2, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := buildParallelV1(data, dims, 1e-2, SZT, 16)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := CompressParallelOpts(data, dims, 1e-2, SZT, WithChunkRows(32))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		buf  []byte
	}{{"plain", plain}, {"parallel", legacy}, {"stream", stream}} {
		if _, _, err := DecompressAny(c.buf, WithContext(ctx), WithWorkers(2)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s decompress: err = %v, want context.Canceled", c.name, err)
		}
		// A live context must not disturb the result.
		dec, gotDims, err := DecompressAny(c.buf, WithContext(context.Background()), WithWorkers(2))
		if err != nil || len(dec) != len(data) || len(gotDims) != len(dims) {
			t.Fatalf("%s live ctx decode: err=%v len=%d", c.name, err, len(dec))
		}
	}
}

// TestStreamCtxNilBehavesAsBackground pins the nil-context convenience.
func TestStreamCtxNilBehavesAsBackground(t *testing.T) {
	defer testutil.NoLeak(t)()
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i + 1)
	}
	var comp bytes.Buffer
	// nil ctx is the documented convenience form under test
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(data)), &comp, []int{64}, 1e-2, SZT, WithContext(nil)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	// nil ctx is the documented convenience form under test
	if _, err := DecompressStreamOpts(bytes.NewReader(comp.Bytes()), &out, WithContext(nil)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes()[:8], rawLE(data)[:8]) && out.Len() != len(data)*8 {
		t.Fatal("nil-ctx round trip broken")
	}
}

// TestArchiveStreamCtxCancelled extends the cancellation contract to
// the archive path (WithContext is the one way in): a writer default of
// a cancelled context fails AddField; a mid-stream cancellation stops
// the pipeline before the input is consumed; and a handle from
// OpenArchiveStream honors ReadRowsCtx cancellation.
func TestArchiveStreamCtxCancelled(t *testing.T) {
	defer testutil.NoLeak(t)()
	data, dims := bigField()
	raw := rawLE(data)

	// Pre-cancelled context as the writer-wide default.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	var sink bytes.Buffer
	aw, err := NewArchiveStreamWriter(&sink, WithContext(pre), WithChunkRows(8), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aw.AddField("f", bytes.NewReader(raw), dims, 1e-2, SZT); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled AddField err = %v, want context.Canceled", err)
	}

	// Mid-stream cancellation via a per-field option.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sink2 bytes.Buffer
	aw2, err := NewArchiveStreamWriter(&sink2, WithChunkRows(8), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	src := &cancelAfterReader{r: bytes.NewReader(raw), n: int64(len(raw) / 4), cancel: cancel}
	st, err := aw2.AddField("f", src, dims, 1e-2, SZT, WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream AddField err = %v, want context.Canceled", err)
	}
	if st != nil && st.BytesIn >= int64(len(raw)) {
		t.Errorf("archive pipeline consumed the whole input after cancellation")
	}

	// Seekable read path: a cancelled context fails ReadRowsCtx on a
	// healthy archive.
	var ok bytes.Buffer
	aw3, err := NewArchiveStreamWriter(&ok, WithChunkRows(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aw3.AddField("f", bytes.NewReader(raw), dims, 1e-2, SZT); err != nil {
		t.Fatal(err)
	}
	if err := aw3.Close(); err != nil {
		t.Fatal(err)
	}
	as, err := OpenArchiveStream(bytes.NewReader(ok.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h, err := as.Field("f")
	if err != nil {
		t.Fatal(err)
	}
	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	dst := make([]float64, len(data))
	if err := h.ReadRowsCtx(dead, dst, 0, h.Rows()); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadRowsCtx err = %v, want context.Canceled", err)
	}
	if err := h.ReadRows(dst, 0, h.Rows()); err != nil {
		t.Fatalf("handle unusable after a cancelled read: %v", err)
	}
}

// cancelAfterWriter cancels a context once n bytes have been written,
// then keeps accepting data.
type cancelAfterWriter struct {
	n      int64
	cancel context.CancelCauseFunc
	cause  error
}

func (c *cancelAfterWriter) Write(p []byte) (int, error) {
	if c.n -= int64(len(p)); c.n <= 0 {
		c.cancel(c.cause)
	}
	return len(p), nil
}

// TestSalvageCtxCancelled extends the cancellation contract to salvage:
// a context cancelled before the call or while chunks are being
// written stops the decode pool and returns the context's cause.
func TestSalvageCtxCancelled(t *testing.T) {
	defer testutil.NoLeak(t)()
	data, dims := bigField()
	var comp bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(data)), &comp, dims, 1e-2, SZT,
		WithWorkers(2), WithChunkRows(8)); err != nil {
		t.Fatal(err)
	}
	stream := comp.Bytes()
	cause := errors.New("operator abort")

	pre, cancelPre := context.WithCancelCause(context.Background())
	cancelPre(cause)
	if _, err := DecompressStreamSalvage(bytes.NewReader(stream), io.Discard,
		WithContext(pre), WithWorkers(2)); !errors.Is(err, cause) {
		t.Fatalf("pre-cancelled: err = %v, want the context's cause", err)
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	w := &cancelAfterWriter{n: int64(len(data)) * 8 / 4, cancel: cancel, cause: cause}
	rep, err := DecompressStreamSalvage(bytes.NewReader(stream), w, WithContext(ctx), WithWorkers(2))
	if !errors.Is(err, cause) {
		t.Fatalf("mid-stream: err = %v, want the context's cause", err)
	}
	if rep.BytesOut >= int64(len(data))*8 {
		t.Errorf("salvage wrote the whole field (%d bytes) after cancellation", rep.BytesOut)
	}
}
