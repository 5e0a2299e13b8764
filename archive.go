package repro

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/bitio"
)

// Archive bundles many named compressed fields into one stream with an
// index — the shape of a simulation snapshot (e.g. NYX's six fields or
// CESM-ATM's dozens) as one object. Fields are individually compressed
// (possibly with different algorithms and bounds) and individually
// retrievable without decoding the others.
//
// Three layouts exist, and ArchiveStreamWriter writes only the newest;
// the other two are read so archives written by earlier versions still
// open. v1 (magic 0xC7) packs blobs back to back with only lengths in
// the directory, so offsets are implicit. v2 (magic 0xC9) records each
// blob's offset explicitly, directory up front:
//
//	archive := magic(0xC9) version(0x01) uvarint(count) entry*
//	           crc32be(blob area) blob area
//	entry   := uvarint(name len) name uvarint(offset) uvarint(blob len)
//
// with offsets relative to the start of the blob area. v3 (magic 0xCA)
// moves the directory to the tail so blobs can stream to the sink as
// fields complete, before their sizes are known:
//
//	archive := magic(0xCA) version(0x01) blob area dir trailer
//	dir     := uvarint(count) entry*            // same entry grammar as v2
//	trailer := crc32be(dir) crc32be(blob area) u64be(dir len)
//
// OpenArchive reads all three, and validates v2/v3 directories
// structurally before touching any blob: every entry must lie inside
// the blob area and no two entries may overlap, so a crafted directory
// cannot alias one blob's bytes into another field or reach outside the
// container. OpenArchiveStream (archive_stream.go) reads the v3 layout
// off an io.ReadSeeker — trailer and directory only — and serves
// per-field seekable StreamHandles without touching sibling blobs.

const (
	archiveMagic   = 0xC7 // v1: implicit sequential offsets
	archiveMagicV2 = 0xC9 // v2: explicit per-entry offsets, directory first
	archiveMagicV3 = 0xCA // v3: explicit per-entry offsets, directory sealed at the tail
	archiveV2Ver   = 0x01
	archiveV3Ver   = 0x01

	// archiveV3TrailerLen is the fixed tail: directory CRC, blob-area
	// CRC, directory length.
	archiveV3TrailerLen = 4 + 4 + 8

	maxArchiveFields = 1 << 20
	maxFieldName     = 4096
)

// ArchiveReader indexes an archive for random field access.
type ArchiveReader struct {
	names  []string
	blobs  [][]byte
	byName map[string][]byte
	opts   []StreamOption
}

// OpenArchive parses an in-memory archive in any layout this package
// writes or has written: v3 (ArchiveStreamWriter) or the legacy v2 and
// v1 layouts. WithLimits is enforced while parsing the directory, before
// any blob-sized work: MaxFields bounds the directory and MaxChunkBytes
// each blob. The reader keeps opts and passes them to DecompressAny
// when Field decodes a blob, so the limits apply again there, along
// with WithWorkers and WithContext.
func OpenArchive(buf []byte, opts ...StreamOption) (_ *ArchiveReader, err error) {
	defer recoverDecode(&err)
	limits := resolveStreamConfig(opts).Limits
	if len(buf) < 2 {
		return nil, fmt.Errorf("%w: %d-byte archive", ErrTruncated, len(buf))
	}
	var r *ArchiveReader
	switch buf[0] {
	case archiveMagic:
		r, err = openArchiveV1(buf, limits)
	case archiveMagicV2:
		if buf[1] != archiveV2Ver {
			return nil, fmt.Errorf("%w: archive v2 version 0x%02x", ErrUnsupportedFormat, buf[1])
		}
		r, err = openArchiveV2(buf, limits)
	case archiveMagicV3:
		r, err = openArchiveV3(buf, limits)
	default:
		return nil, fmt.Errorf("%w: leading byte 0x%02x is not an archive", ErrUnsupportedFormat, buf[0])
	}
	if err != nil {
		return nil, err
	}
	r.opts = opts
	return r, nil
}

// readDirCount parses and sanity-bounds the directory count at buf[off:].
// minEntry is the smallest possible encoded directory entry, so a count
// beyond (remaining bytes)/minEntry is structurally impossible and is
// rejected before the count sizes any allocation.
func readDirCount(buf []byte, off, minEntry int, limits *DecodeLimits) (int, int, error) {
	count, k := bitio.Uvarint(buf[off:])
	if k == 0 || count > maxArchiveFields {
		return 0, 0, fmt.Errorf("%w: archive field count", ErrCorrupted)
	}
	off += k
	if count > uint64(len(buf)-off)/uint64(minEntry) {
		return 0, 0, fmt.Errorf("%w: %d fields declared in %d bytes", ErrCorrupted, count, len(buf)-off)
	}
	if err := limits.checkFields(int(count)); err != nil {
		return 0, 0, err
	}
	return int(count), off, nil
}

func openArchiveV1(buf []byte, limits *DecodeLimits) (*ArchiveReader, error) {
	count, off, err := readDirCount(buf, 1, 3, limits)
	if err != nil {
		return nil, err
	}
	r := &ArchiveReader{byName: make(map[string][]byte, count)}
	lengths := make([]int, count)
	var total uint64
	for i := 0; i < count; i++ {
		nlen, k := bitio.Uvarint(buf[off:])
		if k == 0 || nlen == 0 || nlen > maxFieldName || nlen > uint64(len(buf)-off-k) {
			return nil, fmt.Errorf("%w: archive entry %d name", ErrCorrupted, i)
		}
		off += k
		name := string(buf[off : off+int(nlen)])
		off += int(nlen)
		blen, k := bitio.Uvarint(buf[off:])
		if k == 0 || blen > uint64(len(buf)) {
			return nil, fmt.Errorf("%w: archive entry %d length", ErrCorrupted, i)
		}
		if err := limits.checkChunkBytes(int64(blen)); err != nil {
			return nil, err
		}
		off += k
		if _, dup := r.byName[name]; dup {
			return nil, fmt.Errorf("%w: duplicate field %q", ErrCorrupted, name)
		}
		r.names = append(r.names, name)
		r.byName[name] = nil
		lengths[i] = int(blen)
		total += blen
	}
	if off+4 > len(buf) {
		return nil, fmt.Errorf("%w (archive checksum)", ErrTruncated)
	}
	wantCRC := binary.BigEndian.Uint32(buf[off:])
	off += 4
	if total > uint64(len(buf)-off) {
		return nil, fmt.Errorf("%w: blobs overrun the archive", ErrTruncated)
	}
	start := off
	for i := 0; i < count; i++ {
		blob := buf[off : off+lengths[i]]
		r.blobs = append(r.blobs, blob)
		r.byName[r.names[i]] = blob
		off += lengths[i]
	}
	if crc32.ChecksumIEEE(buf[start:off]) != wantCRC {
		return nil, fmt.Errorf("%w: archive checksum mismatch", ErrCorrupted)
	}
	return r, nil
}

// dirEntry is one parsed v2/v3 directory entry: a field name plus its
// blob extent, offset relative to the blob-area start.
type dirEntry struct {
	name     string
	off, len uint64
}

// parseDirEntries parses count explicit-offset entries (the shared
// v2/v3 entry grammar) at buf[off:], enforcing name bounds, uniqueness,
// and MaxChunkBytes per blob. extentCap is the largest plausible blob
// offset or length — the container size — rejecting absurd values
// before validateExtents proves the precise geometry. It returns the
// entries and the offset just past the directory.
func parseDirEntries(buf []byte, off, count int, extentCap uint64, limits *DecodeLimits) ([]dirEntry, int, error) {
	entries := make([]dirEntry, count)
	seen := make(map[string]bool, count)
	for i := 0; i < count; i++ {
		nlen, k := bitio.Uvarint(buf[off:])
		if k == 0 || nlen == 0 || nlen > maxFieldName || nlen > uint64(len(buf)-off-k) {
			return nil, 0, fmt.Errorf("%w: archive entry %d name", ErrCorrupted, i)
		}
		off += k
		name := string(buf[off : off+int(nlen)])
		off += int(nlen)
		boff, k := bitio.Uvarint(buf[off:])
		if k == 0 || boff > extentCap {
			return nil, 0, fmt.Errorf("%w: archive entry %d offset", ErrCorrupted, i)
		}
		off += k
		blen, k := bitio.Uvarint(buf[off:])
		if k == 0 || blen > extentCap {
			return nil, 0, fmt.Errorf("%w: archive entry %d length", ErrCorrupted, i)
		}
		if err := limits.checkChunkBytes(int64(blen)); err != nil {
			return nil, 0, err
		}
		off += k
		if seen[name] {
			return nil, 0, fmt.Errorf("%w: duplicate field %q", ErrCorrupted, name)
		}
		seen[name] = true
		entries[i] = dirEntry{name: name, off: boff, len: blen}
	}
	return entries, off, nil
}

// validateExtents proves a parsed directory is geometrically honest:
// every entry lies inside the areaSize-byte blob area and no two
// entries overlap — a directory aliasing two fields onto the same bytes
// or reaching outside the container is forged, not damaged.
func validateExtents(entries []dirEntry, areaSize uint64) error {
	for i := range entries {
		hi := entries[i].off + entries[i].len
		if hi > areaSize || hi < entries[i].off {
			return fmt.Errorf("%w: field %q at [%d,%d) outside the %d-byte blob area",
				ErrCorrupted, entries[i].name, entries[i].off, hi, areaSize)
		}
	}
	sorted := append([]dirEntry(nil), entries...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].off < sorted[b].off })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].off < sorted[i-1].off+sorted[i-1].len {
			return fmt.Errorf("%w: fields %q and %q overlap in the blob area",
				ErrCorrupted, sorted[i-1].name, sorted[i].name)
		}
	}
	return nil
}

// newArchiveReader builds a reader over a validated blob area.
func newArchiveReader(entries []dirEntry, area []byte) *ArchiveReader {
	r := &ArchiveReader{byName: make(map[string][]byte, len(entries))}
	for _, e := range entries {
		blob := area[e.off : e.off+e.len]
		r.names = append(r.names, e.name)
		r.blobs = append(r.blobs, blob)
		r.byName[e.name] = blob
	}
	return r
}

func openArchiveV2(buf []byte, limits *DecodeLimits) (*ArchiveReader, error) {
	count, off, err := readDirCount(buf, 2, 4, limits)
	if err != nil {
		return nil, err
	}
	entries, off, err := parseDirEntries(buf, off, count, uint64(len(buf)), limits)
	if err != nil {
		return nil, err
	}
	if off+4 > len(buf) {
		return nil, fmt.Errorf("%w (archive checksum)", ErrTruncated)
	}
	wantCRC := binary.BigEndian.Uint32(buf[off:])
	off += 4
	area := buf[off:]
	if err := validateExtents(entries, uint64(len(area))); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(area) != wantCRC {
		return nil, fmt.Errorf("%w: archive checksum mismatch", ErrCorrupted)
	}
	return newArchiveReader(entries, area), nil
}

// openArchiveV3 parses the tail-directory layout from a full in-memory
// buffer, verifying both trailer CRCs (directory and blob area) before
// any blob is served — the whole-container trust model of v1/v2. The
// random-access path over the same layout is OpenArchiveStream, which
// reads the directory the same way but leaves the blob-area CRC
// unchecked, leaning on the per-chunk CRCs of the stream containers
// inside.
func openArchiveV3(buf []byte, limits *DecodeLimits) (*ArchiveReader, error) {
	entries, blobCRC, dirOff, err := readArchiveV3Dir(bytes.NewReader(buf), limits)
	if err != nil {
		return nil, err
	}
	area := buf[2:dirOff]
	if crc32.ChecksumIEEE(area) != blobCRC {
		return nil, fmt.Errorf("%w: archive checksum mismatch", ErrCorrupted)
	}
	return newArchiveReader(entries, area), nil
}

// Fields returns the field names in archive order.
func (r *ArchiveReader) Fields() []string {
	return append([]string(nil), r.names...)
}

// SortedFields returns the field names sorted lexicographically.
func (r *ArchiveReader) SortedFields() []string {
	out := r.Fields()
	sort.Strings(out)
	return out
}

// Raw returns the compressed stream of a field without decoding it.
func (r *ArchiveReader) Raw(name string) ([]byte, error) {
	blob, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("repro: no field %q in archive", name)
	}
	return blob, nil
}

// Field decompresses one field by name, under the options the archive
// was opened with.
func (r *ArchiveReader) Field(name string) (_ []float64, _ []int, err error) {
	defer recoverDecode(&err)
	blob, err := r.Raw(name)
	if err != nil {
		return nil, nil, err
	}
	return DecompressAny(blob, r.opts...)
}
