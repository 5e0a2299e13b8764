package repro

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultio"
	"repro/internal/streamfmt"
	"repro/internal/testutil"
)

// The fault-injection harness: every container format is swept with
// every fault class at every byte offset, and every decode entry point
// must respond with a clean typed error from the taxonomy in errors.go —
// never a panic, never a hang, never a goroutine leak, and never a
// silently wrong answer (success is allowed only with a self-consistent
// shape, since a fault that flips the unchecksummed algorithm byte can
// legitimately decode through a different codec).

// faultCorpus builds one small instance of every container format.
func faultCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	data := make([]float64, 40)
	for i := range data {
		data[i] = 30*math.Sin(float64(i)/4) + 50
	}
	dims := []int{8, 5}
	corpus := map[string][]byte{}

	plain, err := Compress(data, dims, 1e-2, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	corpus["plain"] = plain

	par, err := buildParallelV1(data, dims, 1e-2, SZT, 2)
	if err != nil {
		t.Fatal(err)
	}
	corpus["parallel"] = par

	var sb bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(data)), &sb, dims, 1e-2, SZT,
		WithWorkers(2), WithChunkRows(2)); err != nil {
		t.Fatal(err)
	}
	corpus["stream"] = sb.Bytes()

	var pb bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(data)), &pb, dims, 1e-2, SZT,
		WithWorkers(2), WithChunkRows(2), WithParity(2)); err != nil {
		t.Fatal(err)
	}
	corpus["stream_parity"] = pb.Bytes()

	corpus["archive"] = buildArchiveV2([]struct {
		name    string
		off, ln uint64
	}{{"f0", 0, uint64(len(plain))}, {"f1", uint64(len(plain)), uint64(len(par))}},
		append(append([]byte(nil), plain...), par...))

	var v3 bytes.Buffer
	av3, err := NewArchiveStreamWriter(&v3, WithChunkRows(2), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := av3.AddField("f0", bytes.NewReader(rawLE(data)), dims, 1e-2, SZT); err != nil {
		t.Fatal(err)
	}
	if _, err := av3.AddField("f1", bytes.NewReader(rawLE(data)), dims, 1e-2, SZT); err != nil {
		t.Fatal(err)
	}
	if err := av3.Close(); err != nil {
		t.Fatal(err)
	}
	corpus["archive_v3"] = v3.Bytes()
	return corpus
}

// typedOK reports whether err belongs to the decode-error taxonomy (or
// is the fault we injected, propagated without relabeling).
func typedOK(err error) bool {
	return errors.Is(err, ErrCorrupted) ||
		errors.Is(err, ErrUnsupportedFormat) ||
		errors.Is(err, ErrLimitExceeded) ||
		errors.Is(err, faultio.ErrInjected)
}

// shapeConsistent asserts dims are positive and multiply to len(data).
func shapeConsistent(t *testing.T, desc string, data []float64, dims []int) {
	t.Helper()
	n := 1
	for _, d := range dims {
		if d <= 0 {
			t.Fatalf("%s: nonpositive dim in %v", desc, dims)
		}
		n *= d
	}
	if n != len(data) {
		t.Fatalf("%s: dims %v product %d != len %d", desc, dims, n, len(data))
	}
}

// decodeEntry is one decode path under test, applied to a (possibly
// mutated) in-memory container.
type decodeEntry struct {
	name string
	run  func(t *testing.T, desc string, buf []byte) error
}

func bufEntries() []decodeEntry {
	return []decodeEntry{
		{"Decompress", func(t *testing.T, desc string, buf []byte) error {
			data, dims, err := Decompress(buf)
			if err == nil {
				shapeConsistent(t, desc, data, dims)
			}
			return err
		}},
		{"DecompressAny", func(t *testing.T, desc string, buf []byte) error {
			data, dims, err := DecompressAny(buf)
			if err == nil {
				shapeConsistent(t, desc, data, dims)
			}
			return err
		}},
		{"DecompressStreamOpts", func(t *testing.T, desc string, buf []byte) error {
			_, err := DecompressStreamOpts(bytes.NewReader(buf), io.Discard)
			return err
		}},
		{"OpenStream", func(t *testing.T, desc string, buf []byte) error {
			// Limits bound the allocations a mutated header or index could
			// otherwise demand before the damage is detected.
			h, err := OpenStream(bytes.NewReader(buf),
				WithLimits(&DecodeLimits{MaxElements: 1 << 16, MaxChunkBytes: 1 << 20}))
			if err != nil {
				return err
			}
			dst := make([]float64, h.Rows()*uint64(h.RowStride()))
			return h.ReadRows(dst, 0, h.Rows())
		}},
		{"OpenArchive", func(t *testing.T, desc string, buf []byte) error {
			r, err := OpenArchive(buf)
			if err != nil {
				return err
			}
			for _, name := range r.Fields() {
				data, dims, ferr := r.Field(name)
				if ferr == nil {
					shapeConsistent(t, desc+"/"+name, data, dims)
				} else if !typedOK(ferr) {
					t.Fatalf("%s: field %q: untyped error %v", desc, name, ferr)
				}
			}
			return nil
		}},
		{"OpenArchiveStream", func(t *testing.T, desc string, buf []byte) error {
			as, err := OpenArchiveStream(bytes.NewReader(buf),
				WithLimits(&DecodeLimits{MaxElements: 1 << 16, MaxChunkBytes: 1 << 20}))
			if err != nil {
				return err
			}
			for _, name := range as.Fields() {
				h, ferr := as.Field(name)
				if ferr != nil {
					if !typedOK(ferr) {
						t.Fatalf("%s: field %q: untyped error %v", desc, name, ferr)
					}
					continue
				}
				dst := make([]float64, h.Rows()*uint64(h.RowStride()))
				if rerr := h.ReadRows(dst, 0, h.Rows()); rerr != nil && !typedOK(rerr) {
					t.Fatalf("%s: field %q read: untyped error %v", desc, name, rerr)
				}
			}
			return nil
		}},
	}
}

// runEntry executes one decode with a panic trap (the recoverDecode
// boundary should make this unreachable; the trap proves it).
func runEntry(t *testing.T, e decodeEntry, desc string, buf []byte) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic escaped the decode boundary: %v", desc, r)
		}
	}()
	return e.run(t, desc, buf)
}

// TestFaultSweepTruncation truncates every container at every byte
// offset and feeds the prefix to every decode entry point.
func TestFaultSweepTruncation(t *testing.T) {
	defer testutil.NoLeak(t)()
	corpus := faultCorpus(t)
	entries := bufEntries()
	for name, buf := range corpus {
		for cut := 0; cut < len(buf); cut++ {
			mut := buf[:cut]
			for _, e := range entries {
				desc := name + "/" + e.name + "/trunc@" + itoa(cut)
				if err := runEntry(t, e, desc, mut); err != nil && !typedOK(err) {
					t.Fatalf("%s: untyped error %v", desc, err)
				}
			}
		}
	}
}

// TestFaultSweepBitFlips flips a low and a high bit at every byte offset
// of every container. Every decode either fails with a typed error or
// succeeds with a self-consistent shape.
func TestFaultSweepBitFlips(t *testing.T) {
	defer testutil.NoLeak(t)()
	corpus := faultCorpus(t)
	entries := bufEntries()
	for name, buf := range corpus {
		mut := make([]byte, len(buf))
		for pos := 0; pos < len(buf); pos++ {
			for _, mask := range []byte{0x01, 0x80} {
				copy(mut, buf)
				mut[pos] ^= mask
				for _, e := range entries {
					desc := name + "/" + e.name + "/flip@" + itoa(pos)
					if err := runEntry(t, e, desc, mut); err != nil && !typedOK(err) {
						t.Fatalf("%s: untyped error %v", desc, err)
					}
				}
			}
		}
	}
}

// TestFaultSweepZeroFill zeroes an 8-byte run at every offset of every
// container.
func TestFaultSweepZeroFill(t *testing.T) {
	defer testutil.NoLeak(t)()
	corpus := faultCorpus(t)
	entries := bufEntries()
	for name, buf := range corpus {
		mut := make([]byte, len(buf))
		for pos := 0; pos < len(buf); pos++ {
			copy(mut, buf)
			for i := pos; i < pos+8 && i < len(mut); i++ {
				mut[i] = 0
			}
			for _, e := range entries {
				desc := name + "/" + e.name + "/zero@" + itoa(pos)
				if err := runEntry(t, e, desc, mut); err != nil && !typedOK(err) {
					t.Fatalf("%s: untyped error %v", desc, err)
				}
			}
		}
	}
}

// TestFaultSweepReaderFailure drives DecompressStreamOpts from a source
// that fails with an injected I/O error at every byte offset. The
// pipeline must return the injected error itself (wrapped, never
// relabeled as corruption) and leave no goroutines behind.
func TestFaultSweepReaderFailure(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream := faultCorpus(t)["stream"]
	for cut := 0; cut <= len(stream); cut++ {
		r := faultio.FailAfter(bytes.NewReader(stream), int64(cut))
		_, err := DecompressStreamOpts(r, io.Discard)
		if cut == len(stream) {
			// The whole container was delivered; the fault lands after
			// the sealed index and is never observed.
			if err != nil {
				t.Fatalf("fault after container end: %v", err)
			}
			continue
		}
		if !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("fail@%d: err = %v, want the injected I/O error to propagate", cut, err)
		}
	}
}

// TestFaultSweepReaderCorruption drives DecompressStreamOpts through
// flip/zero-fill fault readers (rather than pre-mutated buffers) with
// short reads layered on, exercising the buffered-reader resumption
// paths.
func TestFaultSweepReaderCorruption(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream := faultCorpus(t)["stream"]
	clean := rawLEOfDecoded(t, stream)
	for pos := 0; pos < len(stream); pos++ {
		r := faultio.FlipByte(faultio.ShortReads(bytes.NewReader(stream), 13), int64(pos), 0x10)
		var out bytes.Buffer
		_, err := DecompressStreamOpts(r, &out)
		if err == nil {
			if !bytes.Equal(out.Bytes(), clean) {
				t.Fatalf("flip@%d: silently changed output", pos)
			}
			continue
		}
		if !typedOK(err) {
			t.Fatalf("flip@%d: untyped error %v", pos, err)
		}
	}
	for pos := 0; pos < len(stream); pos += 3 {
		r := faultio.ZeroFill(bytes.NewReader(stream), int64(pos), 6)
		_, err := DecompressStreamOpts(r, io.Discard)
		if err != nil && !typedOK(err) {
			t.Fatalf("zero@%d: untyped error %v", pos, err)
		}
	}
}

// TestFaultStalledReader proves a stalling source neither hangs the
// pipeline past its stall nor leaks its goroutines.
func TestFaultStalledReader(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream := faultCorpus(t)["stream"]
	for _, cut := range []int64{0, 5, int64(len(stream) / 2), int64(len(stream) - 1)} {
		start := time.Now()
		r := faultio.StallThenFail(bytes.NewReader(stream), cut, 10*time.Millisecond)
		_, err := DecompressStreamOpts(r, io.Discard)
		if !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("stall@%d: err = %v, want injected", cut, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("stall@%d: decode took %v, pipeline is hanging", cut, d)
		}
	}
}

// TestFaultHostileChunkCount feeds every stream decode entry point an
// 11-byte container whose header declares dims [2^40] at one row per
// chunk, 2^40 chunks, with no frame behind it. Under default options
// each must fail after allocating for the bytes it read, never for the
// chunk count the header claims: an allocation sized by that claim
// kills the process with an out-of-memory fatal error that no recover
// can catch. The strict readers fail with ErrTruncated; salvage
// NaN-fills every chunk the container lacks, so only its writer, which
// fails after 64 KiB, stops it.
func TestFaultHostileChunkCount(t *testing.T) {
	defer testutil.NoLeak(t)()
	hostile := []byte{
		streamfmt.Magic, streamfmt.Version, byte(SZT),
		1,                                  // rank
		0x80, 0x80, 0x80, 0x80, 0x80, 0x20, // dims[0] = 2^40 as a uvarint
		1, // chunk rows
	}
	for _, e := range []struct {
		name string
		want error
		run  func() error
	}{
		{"DecompressStreamOpts", ErrTruncated, func() error {
			_, err := DecompressStreamOpts(bytes.NewReader(hostile), io.Discard)
			return err
		}},
		{"DecompressAny", ErrTruncated, func() error {
			_, _, err := DecompressAny(hostile)
			return err
		}},
		{"OpenStream", ErrTruncated, func() error {
			_, err := OpenStream(bytes.NewReader(hostile))
			return err
		}},
		{"DecompressStreamSalvage", faultio.ErrInjected, func() error {
			_, err := DecompressStreamSalvage(bytes.NewReader(hostile), faultio.FailWriter(io.Discard, 64<<10))
			return err
		}},
	} {
		var err error
		n := allocatedBy(func() { err = e.run() })
		if !errors.Is(err, e.want) {
			t.Errorf("%s: err = %v, want %v", e.name, err, e.want)
		}
		if n >= 1<<20 {
			t.Errorf("%s: allocated %d bytes refusing an 11-byte container", e.name, n)
		}
		t.Logf("%s: %v after %d bytes allocated", e.name, err, n)
	}
}

// allocatedBy returns the heap bytes allocated while fn runs.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFaultFailingWriter proves DecompressStreamOpts stops reading
// promptly when the output writer fails: the error surfaces, and the
// reader side does not consume the whole container first.
func TestFaultFailingWriter(t *testing.T) {
	defer testutil.NoLeak(t)()
	data := make([]float64, 4096)
	for i := range data {
		data[i] = float64(i%97) + 1
	}
	var sb bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(data)), &sb, []int{256, 16}, 1e-2, SZT,
		WithWorkers(2), WithChunkRows(8)); err != nil {
		t.Fatal(err)
	}
	stream := sb.Bytes()
	src := bytes.NewReader(stream)
	w := faultio.FailWriter(io.Discard, 64) // dies during the first chunk's output
	stats, err := DecompressStreamOpts(src, w)
	if !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("err = %v, want the writer's injected error", err)
	}
	// The pipeline may have a bounded read-ahead (the chunks in flight),
	// but must not have drained the source: with 32 chunks and a
	// first-chunk write failure, most of the container stays unread.
	if src.Len() == 0 {
		t.Errorf("writer failed on chunk 0 but the reader consumed the whole container")
	}
	if stats.BytesIn >= int64(len(stream)) {
		t.Errorf("stats report %d bytes read of %d; want an early stop", stats.BytesIn, len(stream))
	}
}

// TestFaultSweepSalvage runs the salvage decoder over every single-byte
// truncation and bit flip of a stream container: it must never error on
// frame damage (only on an unusable header), and its output must always
// match the geometry it reports.
func TestFaultSweepSalvage(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream := faultCorpus(t)["stream"]
	check := func(desc string, buf []byte) {
		var out bytes.Buffer
		rep, err := DecompressStreamSalvage(bytes.NewReader(buf), &out)
		if err != nil {
			if !typedOK(err) {
				t.Fatalf("%s: untyped error %v", desc, err)
			}
			return
		}
		n := 1
		for _, d := range rep.Dims {
			n *= d
		}
		if int64(out.Len()) != rep.BytesOut || out.Len() != n*8 {
			t.Fatalf("%s: wrote %d bytes, report says %d, geometry %v implies %d",
				desc, out.Len(), rep.BytesOut, rep.Dims, n*8)
		}
		if rep.Recovered+len(rep.LostChunks) != rep.Chunks {
			t.Fatalf("%s: %d recovered + %d lost != %d chunks",
				desc, rep.Recovered, len(rep.LostChunks), rep.Chunks)
		}
	}
	for cut := 0; cut < len(stream); cut++ {
		check("trunc@"+itoa(cut), stream[:cut])
	}
	mut := make([]byte, len(stream))
	for pos := 0; pos < len(stream); pos++ {
		copy(mut, stream)
		mut[pos] ^= 0x20
		check("flip@"+itoa(pos), mut)
	}
}

// TestFaultSweepParityRepair is the self-healing acceptance sweep: over
// a parity container, any single damaged byte inside a chunk frame must
// decode byte-identically through both the salvage path and the seekable
// path (repair, not NaN fill); a damaged parity frame costs nothing; and
// damage anywhere else still keeps the books consistent.
func TestFaultSweepParityRepair(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream := faultCorpus(t)["stream_parity"] // dims {8,5}, ChunkRows 2, K=2 → 4 chunks, 2 groups
	clean := rawLEOfDecoded(t, stream)
	scan, err := streamfmt.ScanSalvage(stream, streamfmt.Limits{})
	if err != nil || !scan.IndexOK {
		t.Fatalf("clean parity container: %v (IndexOK=%v)", err, scan.IndexOK)
	}
	region := func(pos int64, frames []streamfmt.FrameInfo) int {
		for i := range frames {
			if pos >= frames[i].Offset && pos < frames[i].End {
				return i
			}
		}
		return -1
	}
	mut := make([]byte, len(stream))
	for pos := 0; pos < len(stream); pos++ {
		copy(mut, stream)
		mut[pos] ^= 0x20
		inChunk := region(int64(pos), scan.Frames)
		inParity := region(int64(pos), scan.Parity)

		var out bytes.Buffer
		rep, err := DecompressStreamSalvage(bytes.NewReader(mut), &out)
		if err != nil {
			if !typedOK(err) {
				t.Fatalf("flip@%d: untyped salvage error %v", pos, err)
			}
		} else {
			if rep.Recovered+rep.Lost() != rep.Chunks {
				t.Fatalf("flip@%d: books off: %d + %d != %d", pos, rep.Recovered, rep.Lost(), rep.Chunks)
			}
			if (inChunk >= 0 || inParity >= 0) && (rep.Lost() != 0 || !bytes.Equal(out.Bytes(), clean)) {
				t.Fatalf("flip@%d (chunk %d, parity %d): lost=%v; single in-frame damage must repair byte-identically",
					pos, inChunk, inParity, rep.LostChunks)
			}
		}

		h, err := OpenStream(bytes.NewReader(mut),
			WithLimits(&DecodeLimits{MaxElements: 1 << 16, MaxChunkBytes: 1 << 20}))
		if err != nil {
			if !typedOK(err) {
				t.Fatalf("flip@%d: untyped OpenStream error %v", pos, err)
			}
			if inChunk >= 0 || inParity >= 0 {
				t.Fatalf("flip@%d: OpenStream rejected damage outside header and index: %v", pos, err)
			}
			continue
		}
		dst := make([]float64, h.Rows()*uint64(h.RowStride()))
		rerr := h.ReadRows(dst, 0, h.Rows())
		if inChunk >= 0 || inParity >= 0 {
			if rerr != nil {
				t.Fatalf("flip@%d (chunk %d, parity %d): ReadRows did not repair: %v", pos, inChunk, inParity, rerr)
			}
			if !bytes.Equal(rawLE(dst), clean) {
				t.Fatalf("flip@%d: repaired range read differs from clean decode", pos)
			}
			want := 0
			if inChunk >= 0 {
				want = 1
			}
			if st := h.Stats(); st.RepairedChunks != want {
				t.Fatalf("flip@%d: stats.RepairedChunks = %d, want %d", pos, st.RepairedChunks, want)
			}
		} else if rerr != nil && !typedOK(rerr) {
			t.Fatalf("flip@%d: untyped ReadRows error %v", pos, rerr)
		}
	}

	// Truncation: salvage must stay book-consistent at every cut, and a
	// cut mid-container loses whole groups gracefully (NaN fill), never
	// fabricating repaired data.
	for cut := 0; cut < len(stream); cut++ {
		var out bytes.Buffer
		rep, err := DecompressStreamSalvage(bytes.NewReader(stream[:cut]), &out)
		if err != nil {
			if !typedOK(err) {
				t.Fatalf("trunc@%d: untyped error %v", cut, err)
			}
			continue
		}
		if rep.Recovered+rep.Lost() != rep.Chunks {
			t.Fatalf("trunc@%d: books off", cut)
		}
		if int64(out.Len()) != rep.BytesOut {
			t.Fatalf("trunc@%d: wrote %d, report says %d", cut, out.Len(), rep.BytesOut)
		}
	}
}

// TestFaultSeekUntouchedChunks proves fault isolation in the seekable
// path: damage confined to one chunk's frame extent never disturbs a
// range read that avoids that chunk, while any range read touching it
// fails with a typed corruption error.
func TestFaultSeekUntouchedChunks(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream := faultCorpus(t)["stream"] // dims {8,5}, ChunkRows 2 → 4 chunks
	clean := fromLE(rawLEOfDecoded(t, stream))
	ix, err := streamfmt.OpenIndex(bytes.NewReader(stream), streamfmt.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Chunks() != 4 {
		t.Fatalf("corpus stream has %d chunks, want 4", ix.Chunks())
	}
	lo, hi := ix.FrameExtent(2) // rows [4,6)
	mut := make([]byte, len(stream))
	for pos := lo; pos < hi; pos++ {
		copy(mut, stream)
		mut[pos] ^= 0x10
		h, err := OpenStream(bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("flip@%d: OpenStream rejected damage outside the index: %v", pos, err)
		}
		// Chunks 0 and 1 (rows [0,4)) avoid the damaged extent entirely.
		dst := make([]float64, 4*5)
		if err := h.ReadRows(dst, 0, 4); err != nil {
			t.Fatalf("flip@%d: read of untouched chunks failed: %v", pos, err)
		}
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(clean[i]) {
				t.Fatalf("flip@%d: untouched range altered at element %d", pos, i)
			}
		}
		// Any range that touches chunk 2 must hit the damage and fail typed.
		if err := h.ReadRows(dst[:2*5], 4, 2); !errors.Is(err, ErrCorrupted) {
			t.Fatalf("flip@%d: read of damaged chunk: err = %v, want ErrCorrupted", pos, err)
		}
	}
}

// TestDecodeLimits exercises every limit against containers that exceed
// it; the error must be ErrLimitExceeded before a large decode happens.
func TestDecodeLimits(t *testing.T) {
	defer testutil.NoLeak(t)()
	corpus := faultCorpus(t)
	anyFormats := []string{"plain", "parallel", "stream"} // 0xC5, 0xC6, 0xC8
	tiny := &DecodeLimits{MaxElements: 4}
	if _, err := DecompressStreamOpts(bytes.NewReader(corpus["stream"]), io.Discard, WithLimits(tiny)); !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("stream MaxElements: err = %v", err)
	}
	for _, name := range anyFormats {
		if _, _, err := DecompressAny(corpus[name], WithLimits(tiny), WithWorkers(2)); !errors.Is(err, ErrLimitExceeded) {
			t.Errorf("DecompressAny %s MaxElements: err = %v", name, err)
		}
	}
	if _, err := DecompressStreamSalvage(bytes.NewReader(corpus["stream"]), io.Discard, WithLimits(tiny)); !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("salvage MaxElements: err = %v", err)
	}
	small := &DecodeLimits{MaxChunkBytes: 3}
	if _, err := DecompressStreamOpts(bytes.NewReader(corpus["stream"]), io.Discard, WithLimits(small)); !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("stream MaxChunkBytes: err = %v", err)
	}
	// Salvage loses an oversized chunk like a damaged one, alone.
	if rep, err := DecompressStreamSalvage(bytes.NewReader(corpus["stream"]), io.Discard, WithLimits(small)); err != nil || !rep.IndexOK || rep.Lost() != rep.Chunks {
		t.Errorf("salvage MaxChunkBytes: err = %v, report %+v; want every chunk lost under a verified index", err, rep)
	}
	for _, name := range []string{"parallel", "stream"} {
		if _, _, err := DecompressAny(corpus[name], WithLimits(small)); !errors.Is(err, ErrLimitExceeded) {
			t.Errorf("DecompressAny %s MaxChunkBytes: err = %v", name, err)
		}
	}
	if _, err := OpenArchive(corpus["archive"], WithLimits(small)); !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("archive MaxChunkBytes: err = %v", err)
	}
	if _, err := OpenArchive(corpus["archive"], WithLimits(&DecodeLimits{MaxFields: 1})); !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("archive MaxFields: err = %v", err)
	}
	// Generous limits must not reject valid containers.
	big := &DecodeLimits{MaxElements: 1 << 20, MaxChunkBytes: 1 << 20, MaxFields: 64}
	if _, err := DecompressStreamOpts(bytes.NewReader(corpus["stream"]), io.Discard, WithLimits(big)); err != nil {
		t.Errorf("stream under generous limits: %v", err)
	}
	if rep, err := DecompressStreamSalvage(bytes.NewReader(corpus["stream"]), io.Discard, WithLimits(big)); err != nil || rep.Recovered != rep.Chunks {
		t.Errorf("salvage under generous limits: err = %v, report %+v", err, rep)
	}
	for _, name := range anyFormats {
		if data, dims, err := DecompressAny(corpus[name], WithLimits(big), WithWorkers(2)); err != nil {
			t.Errorf("DecompressAny %s under generous limits: %v", name, err)
		} else {
			shapeConsistent(t, name, data, dims)
		}
	}
	if r, err := OpenArchive(corpus["archive"], WithLimits(big)); err != nil {
		t.Errorf("archive under generous limits: %v", err)
	} else if _, _, err := r.Field("f0"); err != nil {
		t.Errorf("archive field under generous limits: %v", err)
	}
}

// itoa avoids pulling strconv into the hot sweep loops' fmt usage.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
