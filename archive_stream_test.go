package repro

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bitio"
	"repro/internal/datagen"
	"repro/internal/streamfmt"
	"repro/internal/testutil"
)

// buildStreamArchive writes the named fields through an
// ArchiveStreamWriter and returns the sealed v3 container.
func buildStreamArchive(t testing.TB, fields map[string][]float64, dims []int, opts ...StreamOption) []byte {
	t.Helper()
	var buf bytes.Buffer
	aw, err := NewArchiveStreamWriter(&buf, opts...)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(fields))
	for n := range fields {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic container layout
	for _, n := range names {
		if _, err := aw.AddField(n, bytes.NewReader(rawLE(fields[n])), dims, 1e-3, SZT, WithChunkRows(4)); err != nil {
			t.Fatalf("field %q: %v", n, err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func archiveTestFields() (map[string][]float64, []int) {
	fs := datagen.NYX(16, 7)
	out := map[string][]float64{
		"velocity": fs[0].Data,
		"pressure": fs[1].Data,
		"temp":     fs[2].Data,
	}
	return out, fs[0].Dims
}

// TestArchiveStreamRoundTrip seals a multi-field archive through the
// streaming writer and reads it back two ways: the in-memory v3 reader
// (whole-area CRC) and per-field seekable handles from
// OpenArchiveStream. Both must match a reference decode of each field
// compressed standalone with identical chunking.
func TestArchiveStreamRoundTrip(t *testing.T) {
	defer testutil.NoLeak(t)()
	fields, dims := archiveTestFields()
	arch := buildStreamArchive(t, fields, dims)

	want := map[string][]float64{}
	for n, data := range fields {
		var comp bytes.Buffer
		if _, err := CompressStreamOpts(bytes.NewReader(rawLE(data)), &comp, dims, 1e-3, SZT, WithChunkRows(4)); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := DecompressStreamOpts(bytes.NewReader(comp.Bytes()), &out); err != nil {
			t.Fatal(err)
		}
		want[n] = fromLE(out.Bytes())
	}

	ar, err := OpenArchive(arch)
	if err != nil {
		t.Fatalf("OpenArchive(v3): %v", err)
	}
	if got := len(ar.Fields()); got != len(fields) {
		t.Fatalf("archive holds %d fields, want %d", got, len(fields))
	}
	for n := range fields {
		dec, gotDims, err := ar.Field(n)
		if err != nil {
			t.Fatalf("Field(%q): %v", n, err)
		}
		if len(gotDims) != len(dims) || gotDims[0] != dims[0] {
			t.Fatalf("Field(%q) dims %v want %v", n, gotDims, dims)
		}
		for i := range dec {
			if dec[i] != want[n][i] {
				t.Fatalf("Field(%q)[%d] = %g, want %g", n, i, dec[i], want[n][i])
			}
		}
	}

	as, err := OpenArchiveStream(bytes.NewReader(arch))
	if err != nil {
		t.Fatalf("OpenArchiveStream: %v", err)
	}
	for n := range fields {
		h, err := as.Field(n)
		if err != nil {
			t.Fatalf("stream Field(%q): %v", n, err)
		}
		rows := h.Rows()
		got := make([]float64, int(rows)*h.RowStride())
		if err := h.ReadRows(got, 0, rows); err != nil {
			t.Fatalf("ReadRows(%q): %v", n, err)
		}
		for i := range got {
			if got[i] != want[n][i] {
				t.Fatalf("stream Field(%q)[%d] = %g, want %g", n, i, got[i], want[n][i])
			}
		}
	}
}

// TestArchiveStreamMixedKinds covers AddField32 and AddCompressed
// extents in one bundle.
func TestArchiveStreamMixedKinds(t *testing.T) {
	defer testutil.NoLeak(t)()
	f := datagen.NYX(8, 11)[0]
	raw32 := make([]byte, len(f.Data)*4)
	for i, v := range f.Data {
		binary.LittleEndian.PutUint32(raw32[i*4:], math.Float32bits(float32(v)))
	}
	plain, err := Compress(f.Data, f.Dims, 1e-3, ZFPT, nil)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	aw, err := NewArchiveStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aw.AddField32("narrow", bytes.NewReader(raw32), f.Dims, 1e-3, SZT); err != nil {
		t.Fatal(err)
	}
	if err := aw.AddCompressed("plain", plain); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}

	ar, err := OpenArchive(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"narrow", "plain"} {
		if dec, _, err := ar.Field(n); err != nil || len(dec) != len(f.Data) {
			t.Fatalf("Field(%q): len %d err %v", n, len(dec), err)
		}
	}

	// The seekable path serves the stream-container field; the plain
	// blob is typed ErrUnsupportedFormat there (not a stream container).
	as, err := OpenArchiveStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h, err := as.Field("narrow")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float32, len(f.Data))
	if err := h.ReadRows32(got, 0, h.Rows()); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Field("plain"); !errors.Is(err, ErrUnsupportedFormat) {
		t.Fatalf("Field(plain) err = %v, want ErrUnsupportedFormat", err)
	}
}

// rangeRecordingSeeker records the byte ranges actually fetched from
// the underlying source.
type rangeRecordingSeeker struct {
	r      *bytes.Reader
	pos    int64
	ranges [][2]int64
}

func (c *rangeRecordingSeeker) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.ranges = append(c.ranges, [2]int64{c.pos, c.pos + int64(n)})
		c.pos += int64(n)
	}
	return n, err
}

func (c *rangeRecordingSeeker) Seek(offset int64, whence int) (int64, error) {
	pos, err := c.r.Seek(offset, whence)
	c.pos = pos
	return pos, err
}

// TestArchiveStreamFieldLocality asserts the acceptance criterion that
// opening one field and reading rows from it fetches no bytes from
// sibling fields' extents.
func TestArchiveStreamFieldLocality(t *testing.T) {
	defer testutil.NoLeak(t)()
	fields, dims := archiveTestFields()
	arch := buildStreamArchive(t, fields, dims)

	// Recover each field's absolute extent: Raw returns a slice of the
	// container's blob area, so bytes.Index locates it (compressed
	// streams are distinct at these sizes).
	ar, err := OpenArchive(arch)
	if err != nil {
		t.Fatal(err)
	}
	extent := map[string][2]int64{}
	for _, n := range ar.Fields() {
		blob, err := ar.Raw(n)
		if err != nil {
			t.Fatal(err)
		}
		start := int64(bytes.Index(arch, blob))
		if start < 0 {
			t.Fatalf("field %q blob not found in container", n)
		}
		extent[n] = [2]int64{start, start + int64(len(blob))}
	}

	src := &rangeRecordingSeeker{r: bytes.NewReader(arch)}
	as, err := OpenArchiveStream(src)
	if err != nil {
		t.Fatal(err)
	}
	src.ranges = nil // drop the open-time trailer/directory fetches

	const target = "pressure"
	h, err := as.Field(target)
	if err != nil {
		t.Fatal(err)
	}
	rows := h.Rows()
	dst := make([]float64, int(rows/2)*h.RowStride())
	if err := h.ReadRows(dst, rows/4, rows/2); err != nil {
		t.Fatal(err)
	}

	if len(src.ranges) == 0 {
		t.Fatal("no reads recorded — locality assertion is vacuous")
	}
	lo, hi := extent[target][0], extent[target][1]
	for _, r := range src.ranges {
		if r[0] < lo || r[1] > hi {
			t.Fatalf("fetch [%d,%d) strayed outside field %q extent [%d,%d)", r[0], r[1], target, lo, hi)
		}
	}
}

// TestArchiveStreamConcurrentFields reads different fields from the
// same archive concurrently; the section views must serialize access to
// the shared seeker without mixing positions (the race detector is the
// co-assertor here).
func TestArchiveStreamConcurrentFields(t *testing.T) {
	defer testutil.NoLeak(t)()
	fields, dims := archiveTestFields()
	arch := buildStreamArchive(t, fields, dims)
	as, err := OpenArchiveStream(bytes.NewReader(arch))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{}
	for n := range fields {
		h, err := as.Field(n)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, int(h.Rows())*h.RowStride())
		if err := h.ReadRows(out, 0, h.Rows()); err != nil {
			t.Fatal(err)
		}
		want[n] = out
	}

	var wg sync.WaitGroup
	errs := make(chan error, 3*len(fields))
	for n := range fields {
		for rep := 0; rep < 3; rep++ {
			wg.Add(1)
			go func(n string) {
				defer wg.Done()
				h, err := as.Field(n)
				if err != nil {
					errs <- err
					return
				}
				got := make([]float64, int(h.Rows())*h.RowStride())
				if err := h.ReadRows(got, 0, h.Rows()); err != nil {
					errs <- err
					return
				}
				for i := range got {
					if got[i] != want[n][i] {
						errs <- errors.New("concurrent read mismatch on field " + n)
						return
					}
				}
			}(n)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// v3Entry is one crafted directory entry for buildArchiveV3.
type v3Entry struct {
	name     string
	off, len uint64
}

// buildArchiveV3 hand-crafts a v3 container with correct CRCs and
// trailer, so only the targeted defect trips — adversarial-directory
// coverage mirroring the v2 crafted-archive regressions. extraDir bytes
// land after the entries but inside the CRC'd, length-counted
// directory.
func buildArchiveV3(blobArea []byte, entries []v3Entry, count uint64, extraDir []byte) []byte {
	out := []byte{archiveMagicV3, archiveV3Ver}
	out = append(out, blobArea...)
	dir := bitio.AppendUvarint(nil, count)
	for _, e := range entries {
		dir = bitio.AppendUvarint(dir, uint64(len(e.name)))
		dir = append(dir, e.name...)
		dir = bitio.AppendUvarint(dir, e.off)
		dir = bitio.AppendUvarint(dir, e.len)
	}
	dir = append(dir, extraDir...)
	out = append(out, dir...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(dir))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(blobArea))
	out = binary.BigEndian.AppendUint64(out, uint64(len(dir)))
	return out
}

// TestArchiveV3Adversarial feeds crafted v3 directories to both the
// in-memory and the seekable opener: overlapping extents, duplicate
// names, hostile field counts, out-of-range and wrapping extents, and
// trailing directory bytes must all fail typed — never alias blobs or
// allocate off the declared count.
func TestArchiveV3Adversarial(t *testing.T) {
	defer testutil.NoLeak(t)()
	f := datagen.NYX(8, 3)[0]
	var blob bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(f.Data)), &blob, f.Dims, 1e-3, SZT, WithChunkRows(4)); err != nil {
		t.Fatal(err)
	}
	area := blob.Bytes()
	bl := uint64(len(area))

	cases := []struct {
		name string
		arch []byte
	}{
		{"overlap", buildArchiveV3(area, []v3Entry{
			{"a", 0, bl}, {"b", 1, bl - 1}}, 2, nil)},
		{"duplicate", buildArchiveV3(area, []v3Entry{
			{"a", 0, bl}, {"a", 0, 0}}, 2, nil)},
		{"out-of-range", buildArchiveV3(area, []v3Entry{
			{"a", 1, bl}}, 1, nil)},
		{"wrap", buildArchiveV3(area, []v3Entry{
			{"a", ^uint64(0) - 8, 16}}, 1, nil)},
		{"hostile-count", buildArchiveV3(area, []v3Entry{
			{"a", 0, bl}}, 1<<19, nil)},
		{"absurd-count", buildArchiveV3(area, []v3Entry{
			{"a", 0, bl}}, 1<<60, nil)},
		{"trailing-dir-bytes", buildArchiveV3(area, []v3Entry{
			{"a", 0, bl}}, 1, []byte{0xEE, 0xEE})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := OpenArchive(tc.arch); !errors.Is(err, ErrCorrupted) && !errors.Is(err, ErrTruncated) {
				t.Errorf("OpenArchive: err = %v, want ErrCorrupted/ErrTruncated", err)
			}
			if _, err := OpenArchiveStream(bytes.NewReader(tc.arch)); !errors.Is(err, ErrCorrupted) && !errors.Is(err, ErrTruncated) {
				t.Errorf("OpenArchiveStream: err = %v, want ErrCorrupted/ErrTruncated", err)
			}
		})
	}

	good := buildArchiveV3(area, []v3Entry{{"a", 0, bl}}, 1, nil)

	// Baseline sanity: the crafted container with no defect opens on
	// both paths, so the rejections above are the defects' doing.
	if _, err := OpenArchive(good); err != nil {
		t.Fatalf("crafted good archive rejected in-memory: %v", err)
	}
	if _, err := OpenArchiveStream(bytes.NewReader(good)); err != nil {
		t.Fatalf("crafted good archive rejected by seekable opener: %v", err)
	}

	// Damaged directory CRC.
	crcFlip := append([]byte(nil), good...)
	crcFlip[len(crcFlip)-16] ^= 0x40
	if _, err := OpenArchive(crcFlip); !errors.Is(err, ErrCorrupted) {
		t.Errorf("flipped dir CRC, in-memory: err = %v, want ErrCorrupted", err)
	}
	if _, err := OpenArchiveStream(bytes.NewReader(crcFlip)); !errors.Is(err, ErrCorrupted) {
		t.Errorf("flipped dir CRC, seekable: err = %v, want ErrCorrupted", err)
	}

	// Forged directory length: claims a directory larger than the file.
	huge := append([]byte(nil), good...)
	huge[len(huge)-8] = 0x7F
	if _, err := OpenArchive(huge); !errors.Is(err, ErrCorrupted) {
		t.Errorf("forged dirLen, in-memory: err = %v, want ErrCorrupted", err)
	}
	if _, err := OpenArchiveStream(bytes.NewReader(huge)); !errors.Is(err, ErrCorrupted) {
		t.Errorf("forged dirLen, seekable: err = %v, want ErrCorrupted", err)
	}

	// Truncations at every prefix length fail typed, never panic.
	for cut := 0; cut < len(good); cut += 7 {
		if _, err := OpenArchive(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted in-memory", cut)
		}
		if _, err := OpenArchiveStream(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted by seekable opener", cut)
		}
	}

	// Blob-area damage: the in-memory opener refuses outright (whole-
	// area CRC); the seekable opener accepts the directory — its trust
	// model delegates data integrity to per-chunk CRCs — and the read
	// fails.
	flip := append([]byte(nil), good...)
	flip[2+int(bl)/2] ^= 0x01
	if _, err := OpenArchive(flip); !errors.Is(err, ErrCorrupted) {
		t.Errorf("blob flip, in-memory: err = %v, want ErrCorrupted", err)
	}
	as, err := OpenArchiveStream(bytes.NewReader(flip))
	if err != nil {
		t.Fatalf("blob flip, seekable open: %v", err)
	}
	h, err := as.Field("a")
	if err == nil {
		dst := make([]float64, int(h.Rows())*h.RowStride())
		err = h.ReadRows(dst, 0, h.Rows())
	}
	if !errors.Is(err, ErrCorrupted) {
		t.Errorf("blob flip, seekable read: err = %v, want ErrCorrupted", err)
	}

	// Limits: MaxFields bounds the directory on both paths.
	two := buildStreamArchive(t, map[string][]float64{"x": f.Data, "y": f.Data}, f.Dims)
	lim := &DecodeLimits{MaxFields: 1}
	if _, err := OpenArchive(two, WithLimits(lim)); !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("MaxFields, in-memory: err = %v, want ErrLimitExceeded", err)
	}
	if _, err := OpenArchiveStream(bytes.NewReader(two), WithLimits(lim)); !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("MaxFields, seekable: err = %v, want ErrLimitExceeded", err)
	}

	// Unknown field on a healthy archive.
	okStream, err := OpenArchiveStream(bytes.NewReader(two))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := okStream.Field("nope"); err == nil {
		t.Error("unknown field name accepted")
	}
}

// TestArchiveStreamWriterMisuse pins writer-side validation: bad names,
// duplicates, use-after-close, non-poisoning pre-write failures, and
// the sticky error after a mid-blob failure.
func TestArchiveStreamWriterMisuse(t *testing.T) {
	defer testutil.NoLeak(t)()
	f := datagen.NYX(8, 5)[0]
	var buf bytes.Buffer
	aw, err := NewArchiveStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aw.AddField("", bytes.NewReader(rawLE(f.Data)), f.Dims, 1e-3, SZT); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := aw.AddField("x", bytes.NewReader(rawLE(f.Data)), f.Dims, 1e-3, SZT); err != nil {
		t.Fatal(err)
	}
	if _, err := aw.AddField("x", bytes.NewReader(rawLE(f.Data)), f.Dims, 1e-3, SZT); err == nil {
		t.Error("duplicate name accepted")
	}
	// A validation failure before any blob byte must not poison the writer.
	if _, err := aw.AddField("bad", bytes.NewReader(nil), []int{0}, 1e-3, SZT); err == nil {
		t.Error("invalid dims accepted")
	}
	for _, c := range []struct {
		algo  Algorithm
		bound float64
	}{
		{ZFPRATE, 1e-3}, {FPZIP32, 1e-3}, {Algorithm(77), 1e-3},
		{SZT, 2}, {ZFPT, 0}, {ISABELA, -1},
	} {
		if _, err := aw.AddField("bad", bytes.NewReader(rawLE(f.Data)), f.Dims, c.bound, c.algo); err == nil {
			t.Errorf("%v at bound %g accepted", c.algo, c.bound)
		}
	}
	if _, err := aw.AddField("y", bytes.NewReader(rawLE(f.Data)), f.Dims, 1e-3, SZT); err != nil {
		t.Fatalf("writer poisoned by pre-write validation failure: %v", err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := aw.AddField("z", bytes.NewReader(rawLE(f.Data)), f.Dims, 1e-3, SZT); err == nil {
		t.Error("AddField after Close accepted")
	}
	if err := aw.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if ar, err := OpenArchive(buf.Bytes()); err != nil || len(ar.Fields()) != 2 {
		t.Fatalf("sealed archive: err=%v", err)
	}

	// Truncated input mid-blob: the sink holds a partial extent, so the
	// writer must go sticky and Close must refuse to seal.
	var buf2 bytes.Buffer
	aw2, err := NewArchiveStreamWriter(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	short := rawLE(f.Data)[:len(f.Data)*4]
	if _, err := aw2.AddField("partial", bytes.NewReader(short), f.Dims, 1e-3, SZT, WithChunkRows(2)); err == nil {
		t.Fatal("short input accepted")
	}
	if err := aw2.Close(); err == nil {
		t.Error("Close succeeded on a poisoned writer")
	}

	// AddCompressed rejects non-container bytes without poisoning.
	var buf3 bytes.Buffer
	aw3, err := NewArchiveStreamWriter(&buf3)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw3.AddCompressed("junk", []byte{0xFF, 0x01, 0x02}); err == nil {
		t.Error("AddCompressed accepted junk bytes")
	}
	if err := aw3.Close(); err != nil {
		t.Fatalf("empty-archive Close after rejected AddCompressed: %v", err)
	}
}

// TestArchiveStreamMemoryBudget is the live-allocation acceptance test:
// fields much larger than the budget stream through AddField and back
// out of DecompressStreamOpts with peak buffer memory governed by
// WithMemoryBudget — proven deterministically by checking the chunk
// geometry the derivation sealed into the container against the
// pipeline's buffer accounting, and end-to-end by a sampled heap
// high-water mark far below the field size.
func TestArchiveStreamMemoryBudget(t *testing.T) {
	defer testutil.NoLeak(t)()
	const (
		rowStride = 4096 // floats per row: 32 KiB
		rows      = 512  // field: 16 MiB
		nFields   = 2
		budget    = int64(2 << 20) // 2 MiB: 8× smaller than one field
	)
	fieldBytes := int64(rows) * rowStride * 8

	var heapMax uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	go func() {
		defer close(done)
		var m runtime.MemStats
		for {
			select {
			case <-stop:
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

	var arch bytes.Buffer
	aw, err := NewArchiveStreamWriter(&arch, WithMemoryBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alpha", "beta"}
	stats := map[string]*StreamStats{}
	for i := 0; i < nFields; i++ {
		src := &synthReader{remaining: fieldBytes, i: int64(i) << 20}
		st, err := aw.AddField(names[i], src, []int{rows, rowStride}, 1e-2, SZT)
		if err != nil {
			t.Fatal(err)
		}
		stats[names[i]] = st
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}

	// Deterministic half of the bound: recover the chunk geometry the
	// budget derivation chose from each sealed blob and check that the
	// chunk buffers the pipeline admits to having allocated fit the
	// budget (raw-chunk working set = BuffersAllocated × chunkBytes).
	ar, err := OpenArchive(arch.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ar.Fields() {
		blob, err := ar.Raw(n)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := streamfmt.NewReaderLimits(bytes.NewReader(blob), streamfmt.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		hdr := sr.Header()
		if hdr.ChunkRows >= rows {
			t.Errorf("field %q: budget left chunkRows at %d (whole field in one chunk)", n, hdr.ChunkRows)
		}
		chunkBytes := int64(hdr.ChunkRows) * int64(hdr.RowStride()) * 8
		st := stats[n]
		if got := int64(st.BuffersAllocated) * chunkBytes; got > budget {
			t.Errorf("field %q: %d chunk buffers × %d B = %d exceeds budget %d",
				n, st.BuffersAllocated, chunkBytes, got, budget)
		}
	}

	// Decode side under the same budget.
	blob, err := ar.Raw("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressStreamOpts(bytes.NewReader(blob), io.Discard, WithMemoryBudget(budget)); err != nil {
		t.Fatal(err)
	}

	close(stop)
	<-done
	if testutil.RaceEnabled {
		t.Log("race detector inflates heap accounting; skipping high-water assertion")
		return
	}
	growth := int64(heapMax) - int64(base.HeapAlloc)
	// The budget governs the pipeline's chunk buffers; compressed
	// payloads in flight, codec scratch, and the accumulating archive
	// bytes ride on top — but the total must stay far below the 32 MiB
	// of field data that streamed through.
	if growth > fieldBytes {
		t.Errorf("heap grew %d bytes against a %d-byte budget (%d bytes streamed)",
			growth, budget, nFields*fieldBytes)
	}
	t.Logf("streamed %d MiB, budget %d MiB, heap high-water growth %d KiB",
		nFields*fieldBytes>>20, budget>>20, growth>>10)
}
