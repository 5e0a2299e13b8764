package repro

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/metrics"
)

// sealArchive bundles already-compressed blobs into an in-memory v3
// archive through ArchiveStreamWriter over a bytes.Buffer.
func sealArchive(t *testing.T, names []string, blobs [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewArchiveStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if err := w.AddCompressed(name, blobs[i]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestArchiveRoundTrip(t *testing.T) {
	fields := datagen.NYX(16, 40)
	var buf bytes.Buffer
	w, err := NewArchiveStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rel := 1e-2
	for i := range fields {
		f := &fields[i]
		if _, err := w.AddField(f.Name, bytes.NewReader(rawLE(f.Data)), f.Dims, rel, SZT); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenArchive(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Fields()) != len(fields) {
		t.Fatalf("fields %v", r.Fields())
	}
	for i := range fields {
		f := &fields[i]
		dec, dims, err := r.Field(f.Name)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if !grid.EqualDims(dims, f.Dims) {
			t.Fatalf("%s dims %v", f.Name, dims)
		}
		st, err := metrics.RelError(f.Data, dec, rel)
		if err != nil {
			t.Fatal(err)
		}
		if st.Max > rel {
			t.Fatalf("%s: max %g", f.Name, st.Max)
		}
	}
	if _, _, err := r.Field("nope"); err == nil {
		t.Fatal("missing field accepted")
	}
	if got := r.SortedFields(); got[0] > got[len(got)-1] {
		t.Fatal("SortedFields not sorted")
	}
}

func TestArchiveMixedAlgorithmsAndModes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := make([]float64, 1000)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64())
	}
	szt, err := Compress(data, []int{1000}, 1e-3, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := CompressAbs(data, []int{1000}, 0.01, SZABS, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CompressParallelOpts(data, []int{1000}, 1e-2, FPZIP, WithChunkRows(334))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := buildParallelV1(data, []int{1000}, 1e-2, FPZIP, 3)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"szt", "abs", "par", "legacy"}
	r, err := OpenArchive(sealArchive(t, names, [][]byte{szt, abs, par, legacy}))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		dec, _, err := r.Field(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(dec) != 1000 {
			t.Fatalf("%s: length %d", name, len(dec))
		}
	}
	// Raw access returns the stream unmodified.
	raw, err := r.Raw("abs")
	if err != nil || len(raw) != len(abs) {
		t.Fatalf("Raw: %v len %d vs %d", err, len(raw), len(abs))
	}
}

func TestArchiveWriterValidation(t *testing.T) {
	w, err := NewArchiveStreamWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddCompressed("", []byte{1}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := w.AddCompressed("x", []byte{0xde, 0xad}); err == nil {
		t.Fatal("garbage stream accepted")
	}
	buf, err := Compress([]float64{1, 2}, []int{2}, 0.1, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddCompressed("a", buf); err != nil {
		t.Fatal(err)
	}
	if err := w.AddCompressed("a", buf); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestArchiveEmpty(t *testing.T) {
	r, err := OpenArchive(sealArchive(t, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Fields()) != 0 {
		t.Fatal("phantom fields")
	}
}

func TestArchiveCorrupt(t *testing.T) {
	blob, err := Compress([]float64{1, 2, 3, 4}, []int{4}, 0.1, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := sealArchive(t, []string{"f"}, [][]byte{blob})
	for _, cut := range []int{0, 1, 3, len(buf) - 1} {
		if _, err := OpenArchive(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Any bit flip in the blob region must be caught by the archive CRC.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		mut := append([]byte(nil), buf...)
		mut[2+rng.Intn(len(blob))] ^= byte(1 << rng.Intn(8))
		if _, err := OpenArchive(mut); err == nil {
			t.Fatal("blob corruption not detected")
		}
	}
}

// buildArchiveV2 hand-assembles a v2 archive from an explicit directory,
// with a correct area CRC, so tests can craft geometries the writer
// would never emit.
func buildArchiveV2(entries []struct {
	name    string
	off, ln uint64
}, area []byte) []byte {
	out := []byte{archiveMagicV2, archiveV2Ver}
	out = bitio.AppendUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = bitio.AppendUvarint(out, uint64(len(e.name)))
		out = append(out, e.name...)
		out = bitio.AppendUvarint(out, e.off)
		out = bitio.AppendUvarint(out, e.ln)
	}
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(area))
	return append(out, area...)
}

// buildParallelV1 assembles the legacy 0xC6 parallel container that
// earlier versions of CompressParallelOpts wrote, so the reader that
// still decodes it stays covered now that nothing writes it:
//
//	magic(0xC6) algo uvarint(rank) uvarint(dim)* uvarint(chunks)
//	uvarint(chunk len)* chunk*
//
// with chunk c one Compress stream over the rows chunkStarts assigns it.
func buildParallelV1(data []float64, dims []int, relBound float64, algo Algorithm, chunks int) ([]byte, error) {
	rowStride := len(data) / dims[0]
	starts := chunkStarts(dims[0], chunks)
	blobs := make([][]byte, chunks)
	for c := range blobs {
		lo, hi := starts[c], starts[c+1]
		sub := append([]int{hi - lo}, dims[1:]...)
		blob, err := Compress(data[lo*rowStride:hi*rowStride], sub, relBound, algo, nil)
		if err != nil {
			return nil, err
		}
		blobs[c] = blob
	}
	out := []byte{parallelMagic, byte(algo)}
	out = bitio.AppendUvarint(out, uint64(len(dims)))
	for _, d := range dims {
		out = bitio.AppendUvarint(out, uint64(d))
	}
	out = bitio.AppendUvarint(out, uint64(chunks))
	for _, b := range blobs {
		out = bitio.AppendUvarint(out, uint64(len(b)))
	}
	for _, b := range blobs {
		out = append(out, b...)
	}
	return out, nil
}

// TestArchiveOverlappingEntries is the regression test for directory
// validation: a crafted v2 archive whose entries alias the same blob
// bytes must be rejected, not silently served.
func TestArchiveOverlappingEntries(t *testing.T) {
	blob, err := Compress([]float64{1, 2, 3, 4}, []int{4}, 0.1, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	type entry = struct {
		name    string
		off, ln uint64
	}
	n := uint64(len(blob))

	// Full aliasing: both fields claim the same extent.
	buf := buildArchiveV2([]entry{{"a", 0, n}, {"b", 0, n}}, blob)
	if _, err := OpenArchive(buf); !errors.Is(err, ErrCorrupted) || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("aliased entries: err = %v, want ErrCorrupted overlap", err)
	}

	// Partial overlap.
	area := append(append([]byte(nil), blob...), blob...)
	buf = buildArchiveV2([]entry{{"a", 0, n}, {"b", n - 1, n}}, area[:2*n-1])
	if _, err := OpenArchive(buf); !errors.Is(err, ErrCorrupted) || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("partial overlap: err = %v, want ErrCorrupted overlap", err)
	}

	// Out of range: the entry reaches past the blob area.
	buf = buildArchiveV2([]entry{{"a", 1, n}}, blob)
	if _, err := OpenArchive(buf); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("out-of-range entry: err = %v, want ErrCorrupted", err)
	}

	// The same blobs laid out back to back are fine.
	buf = buildArchiveV2([]entry{{"a", 0, n}, {"b", n, n}}, area)
	r, err := OpenArchive(buf)
	if err != nil {
		t.Fatalf("valid crafted archive rejected: %v", err)
	}
	for _, name := range []string{"a", "b"} {
		if _, _, err := r.Field(name); err != nil {
			t.Fatalf("field %q: %v", name, err)
		}
	}
}

// TestArchiveV1Compat pins the reader's support for the legacy implicit-
// offset layout.
func TestArchiveV1Compat(t *testing.T) {
	blob, err := Compress([]float64{5, 6, 7, 8}, []int{2, 2}, 0.1, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := []byte{archiveMagic}
	out = bitio.AppendUvarint(out, 2)
	for _, name := range []string{"x", "y"} {
		out = bitio.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
		out = bitio.AppendUvarint(out, uint64(len(blob)))
	}
	crc := crc32.Update(crc32.ChecksumIEEE(blob), crc32.IEEETable, blob)
	out = binary.BigEndian.AppendUint32(out, crc)
	out = append(out, blob...)
	out = append(out, blob...)

	r, err := OpenArchive(out)
	if err != nil {
		t.Fatalf("v1 archive rejected: %v", err)
	}
	for _, name := range []string{"x", "y"} {
		data, dims, err := r.Field(name)
		if err != nil || len(data) != 4 || len(dims) != 2 {
			t.Fatalf("v1 field %q: data=%d dims=%v err=%v", name, len(data), dims, err)
		}
	}
}

// TestArchiveHostileCount rejects a directory count the container could
// not possibly hold, before it sizes any allocation.
func TestArchiveHostileCount(t *testing.T) {
	for _, magic := range []byte{archiveMagic, archiveMagicV2} {
		hostile := []byte{magic, archiveV2Ver}
		if magic == archiveMagic {
			hostile = hostile[:1]
		}
		hostile = bitio.AppendUvarint(hostile, 1<<19) // huge count, no bytes behind it
		if _, err := OpenArchive(hostile); !errors.Is(err, ErrCorrupted) {
			t.Fatalf("magic %#x: hostile count gave %v, want ErrCorrupted", magic, err)
		}
	}
}
