package repro

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"repro/internal/bitio"
	"repro/internal/streamfmt"
)

// Streaming archives: the v3 (0xCA) tail-directory layout lets a
// snapshot's fields flow straight from io.Reader sources through the
// bounded-memory chunk pipeline into one archive container on an
// io.Writer — no field, compressed or raw, is ever materialized. Each
// AddField seals one stream container (0xC8) into the blob area as an
// extent; Close writes the directory and trailer. Peak memory is the
// pipeline's O(workers × chunk) — or an explicit byte target under
// WithMemoryBudget — independent of field count and field size, which
// is what lets a rank bundle a simulation snapshot larger than its RAM
// share (the deployment shape FRaZ and the bit-adaptive particle
// compressor treat as table stakes).
//
// Reading back is symmetric: OpenArchiveStream parses trailer and
// directory only, and Field opens a seekable StreamHandle over the
// field's extent through a mutex-guarded section view, so a ReadRows on
// one field fetches no bytes from sibling extents.

// ArchiveStreamWriter streams named fields through the chunk pipeline
// into a v3 archive container. Writer-level options set defaults for
// every field; AddField options override per field. Any failure after
// blob bytes have reached the sink poisons the writer (the container
// cannot be completed around a partial extent); validation failures
// before the first byte leave it usable.
type ArchiveStreamWriter struct {
	w        io.Writer
	defaults []StreamOption
	entries  []dirEntry
	byName   map[string]bool
	written  uint64 // blob-area bytes emitted so far
	crc      uint32 // running CRC over the blob area
	err      error  // sticky: the container is unusable once set
	closed   bool
}

// NewArchiveStreamWriter writes the v3 archive preamble to w and
// returns a writer accepting fields. opts become the default options
// for every AddField (chunk sizing, parity, verify-on-write, memory
// budget, context, …).
func NewArchiveStreamWriter(w io.Writer, opts ...StreamOption) (*ArchiveStreamWriter, error) {
	if _, err := w.Write([]byte{archiveMagicV3, archiveV3Ver}); err != nil {
		return nil, fmt.Errorf("repro: writing archive header: %w", err)
	}
	return &ArchiveStreamWriter{w: w, defaults: opts, byName: make(map[string]bool)}, nil
}

// usable reports whether the writer can accept another field.
func (aw *ArchiveStreamWriter) usable() error {
	if aw.err != nil {
		return aw.err
	}
	if aw.closed {
		return fmt.Errorf("repro: archive already closed")
	}
	return nil
}

// checkName validates a new field name against the directory.
func (aw *ArchiveStreamWriter) checkName(name string) error {
	if name == "" || len(name) > maxFieldName {
		return fmt.Errorf("repro: invalid field name %q", name)
	}
	if aw.byName[name] {
		return fmt.Errorf("repro: duplicate field %q", name)
	}
	if len(aw.entries) >= maxArchiveFields {
		return fmt.Errorf("repro: archive full at %d fields", maxArchiveFields)
	}
	return nil
}

// record seals the last n blob-area bytes as field name's extent.
func (aw *ArchiveStreamWriter) record(name string, n uint64) {
	aw.entries = append(aw.entries, dirEntry{name: name, off: aw.written - n, len: n})
	aw.byName[name] = true
}

// AddField reads a raw little-endian float64 field of the given dims
// from r, compresses it through the bounded-memory chunk pipeline under
// the point-wise relative bound, and seals it into the archive as one
// stream-container extent. opts extend (and override) the writer-level
// defaults for this field only — each field may use its own algorithm,
// bound, chunking, parity, and budget.
func (aw *ArchiveStreamWriter) AddField(name string, r io.Reader, dims []int, relBound float64, algo Algorithm, opts ...StreamOption) (*StreamStats, error) {
	return aw.addField(name, r, dims, relBound, algo, opts, false)
}

// AddField32 is AddField for a raw little-endian float32 source,
// widened exactly as by CompressStreamOpts with WithFloat32.
func (aw *ArchiveStreamWriter) AddField32(name string, r io.Reader, dims []int, relBound float64, algo Algorithm, opts ...StreamOption) (*StreamStats, error) {
	return aw.addField(name, r, dims, relBound, algo, opts, true)
}

func (aw *ArchiveStreamWriter) addField(name string, r io.Reader, dims []int, relBound float64, algo Algorithm, opts []StreamOption, f32 bool) (*StreamStats, error) {
	if err := aw.usable(); err != nil {
		return nil, err
	}
	if err := aw.checkName(name); err != nil {
		return nil, err
	}
	all := make([]StreamOption, 0, len(aw.defaults)+len(opts)+1)
	all = append(all, aw.defaults...)
	all = append(all, opts...)
	if f32 {
		all = append(all, WithFloat32())
	}
	cw := &crcCountingWriter{w: aw.w, crc: aw.crc}
	stats, err := compressStream(resolveStreamConfig(all), r, cw, dims, relBound, algo)
	aw.written += uint64(cw.n)
	aw.crc = cw.crc
	if err != nil {
		err = fmt.Errorf("repro: archive field %q: %w", name, err)
		if cw.n > 0 {
			// Partial blob bytes are already in the sink; the container
			// cannot be sealed around them.
			aw.err = err
		}
		return stats, err
	}
	aw.record(name, uint64(cw.n))
	return stats, nil
}

// AddCompressed seals an already-compressed stream (any container this
// module decodes) into the archive unchanged, for mixing pre-compressed
// blobs into a streamed bundle. Note that Field on the read side serves
// seekable handles only for stream-container (0xC8) blobs; other
// formats are still retrievable through OpenArchive.
func (aw *ArchiveStreamWriter) AddCompressed(name string, stream []byte) error {
	if err := aw.usable(); err != nil {
		return err
	}
	if err := aw.checkName(name); err != nil {
		return err
	}
	if !IsParallelStream(stream) && !IsStreamContainer(stream) {
		if _, err := AlgorithmOf(stream); err != nil {
			return fmt.Errorf("repro: field %q: %w", name, err)
		}
	}
	n, err := aw.w.Write(stream)
	aw.written += uint64(n)
	aw.crc = crc32.Update(aw.crc, crc32.IEEETable, stream[:n])
	if err != nil {
		aw.err = fmt.Errorf("repro: archive field %q: %w", name, err)
		return aw.err
	}
	aw.record(name, uint64(n))
	return nil
}

// Fields returns the names sealed so far, in archive order.
func (aw *ArchiveStreamWriter) Fields() []string {
	out := make([]string, len(aw.entries))
	for i := range aw.entries {
		out[i] = aw.entries[i].name
	}
	return out
}

// Close seals the archive: directory, then trailer (directory CRC,
// blob-area CRC, directory length). Close is idempotent; after a
// successful Close the writer accepts no further fields. It does not
// close the underlying writer.
func (aw *ArchiveStreamWriter) Close() error {
	if aw.err != nil {
		return aw.err
	}
	if aw.closed {
		return nil
	}
	dir := bitio.AppendUvarint(nil, uint64(len(aw.entries)))
	for _, e := range aw.entries {
		dir = bitio.AppendUvarint(dir, uint64(len(e.name)))
		dir = append(dir, e.name...)
		dir = bitio.AppendUvarint(dir, e.off)
		dir = bitio.AppendUvarint(dir, e.len)
	}
	tail := make([]byte, 0, len(dir)+archiveV3TrailerLen)
	tail = append(tail, dir...)
	tail = binary.BigEndian.AppendUint32(tail, crc32.ChecksumIEEE(dir))
	tail = binary.BigEndian.AppendUint32(tail, aw.crc)
	tail = binary.BigEndian.AppendUint64(tail, uint64(len(dir)))
	if _, err := aw.w.Write(tail); err != nil {
		aw.err = fmt.Errorf("repro: sealing archive directory: %w", err)
		return aw.err
	}
	aw.closed = true
	return nil
}

// crcCountingWriter counts bytes and maintains a running IEEE CRC over
// everything written through it.
type crcCountingWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (c *crcCountingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// ArchiveStream is a random-access view of a v3 streaming archive: the
// directory is held in memory, blobs stay in the source. Field opens a
// seekable handle on one field; handles share the source's position
// under an internal mutex, so handles on different fields are safe to
// use from concurrent goroutines.
type ArchiveStream struct {
	mu      sync.Mutex
	src     io.ReadSeeker
	opts    []StreamOption
	names   []string
	extents map[string]dirEntry // offsets absolute in the container
}

// OpenArchiveStream opens the v3 archive container in src, reading the
// trailer and directory only — no blob bytes. The directory must pass
// its CRC and the same structural validation as the in-memory path
// (extents inside the blob area, no overlap, no duplicate names,
// bounded count); the blob-area checksum is NOT verified here — that
// would read every blob, defeating random access — so integrity rests
// on the per-chunk CRCs inside each field's stream container, the same
// trust model as OpenStream. opts apply to the directory parse (limits)
// and become the defaults for every Field handle.
func OpenArchiveStream(src io.ReadSeeker, opts ...StreamOption) (_ *ArchiveStream, err error) {
	defer recoverDecode(&err)
	entries, _, _, err := readArchiveV3Dir(src, resolveStreamConfig(opts).Limits)
	if err != nil {
		return nil, err
	}
	a := &ArchiveStream{src: src, opts: opts, extents: make(map[string]dirEntry, len(entries))}
	for _, e := range entries {
		a.names = append(a.names, e.name)
		// Lift blob-area-relative offsets to absolute container offsets.
		a.extents[e.name] = dirEntry{name: e.name, off: e.off + 2, len: e.len}
	}
	return a, nil
}

// readArchiveV3Dir reads a v3 archive's header, trailer and directory
// from src, and no blob bytes. The directory must pass its CRC and the
// structural validation (bounded count, unique names, extents inside
// the blob area, no overlap). It returns the entries, with offsets
// relative to the blob area, the blob-area CRC the trailer records, and
// the directory's offset, where the blob area ends.
func readArchiveV3Dir(src io.ReadSeeker, limits *DecodeLimits) ([]dirEntry, uint32, int64, error) {
	size, err := src.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("repro: seeking archive end: %w", err)
	}
	// Smallest valid container: magic, version, empty directory (one
	// count byte), trailer.
	if size < 2+1+archiveV3TrailerLen {
		return nil, 0, 0, fmt.Errorf("%w: %d-byte archive", ErrTruncated, size)
	}
	if _, err := src.Seek(0, io.SeekStart); err != nil {
		return nil, 0, 0, fmt.Errorf("repro: seeking archive start: %w", err)
	}
	var head [2]byte
	if _, err := io.ReadFull(src, head[:]); err != nil {
		return nil, 0, 0, fmt.Errorf("repro: reading archive header: %w", err)
	}
	if head[0] != archiveMagicV3 {
		return nil, 0, 0, fmt.Errorf("%w: leading byte 0x%02x is not a streaming archive", ErrUnsupportedFormat, head[0])
	}
	if head[1] != archiveV3Ver {
		return nil, 0, 0, fmt.Errorf("%w: archive v3 version 0x%02x", ErrUnsupportedFormat, head[1])
	}
	var trailer [archiveV3TrailerLen]byte
	if _, err := src.Seek(size-archiveV3TrailerLen, io.SeekStart); err != nil {
		return nil, 0, 0, fmt.Errorf("repro: seeking archive trailer: %w", err)
	}
	if _, err := io.ReadFull(src, trailer[:]); err != nil {
		return nil, 0, 0, fmt.Errorf("repro: reading archive trailer: %w", err)
	}
	dirCRC := binary.BigEndian.Uint32(trailer[0:])
	blobCRC := binary.BigEndian.Uint32(trailer[4:])
	dirLen := binary.BigEndian.Uint64(trailer[8:])
	if dirLen < 1 || dirLen > uint64(size-2-archiveV3TrailerLen) {
		return nil, 0, 0, fmt.Errorf("%w: archive directory of %d bytes in a %d-byte container",
			ErrCorrupted, dirLen, size)
	}
	dirOff := size - archiveV3TrailerLen - int64(dirLen)
	if _, err := src.Seek(dirOff, io.SeekStart); err != nil {
		return nil, 0, 0, fmt.Errorf("repro: seeking archive directory: %w", err)
	}
	// The allocation is bounded by the container's real size, proven by
	// the dirLen check above — the same discipline as the stream index
	// window.
	dir := make([]byte, dirLen)
	if _, err := io.ReadFull(src, dir); err != nil {
		return nil, 0, 0, fmt.Errorf("repro: reading archive directory: %w", err)
	}
	if crc32.ChecksumIEEE(dir) != dirCRC {
		return nil, 0, 0, fmt.Errorf("%w: archive directory checksum mismatch", ErrCorrupted)
	}
	count, off, err := readDirCount(dir, 0, 4, limits)
	if err != nil {
		return nil, 0, 0, err
	}
	entries, off, err := parseDirEntries(dir, off, count, uint64(size), limits)
	if err != nil {
		return nil, 0, 0, err
	}
	if off != len(dir) {
		return nil, 0, 0, fmt.Errorf("%w: %d trailing bytes in the %d-entry archive directory",
			ErrCorrupted, len(dir)-off, count)
	}
	if err := validateExtents(entries, uint64(dirOff-2)); err != nil {
		return nil, 0, 0, err
	}
	return entries, blobCRC, dirOff, nil
}

// Fields returns the field names in archive order.
func (a *ArchiveStream) Fields() []string {
	return append([]string(nil), a.names...)
}

// SortedFields returns the field names sorted lexicographically.
func (a *ArchiveStream) SortedFields() []string {
	out := a.Fields()
	sort.Strings(out)
	return out
}

// Field opens a seekable StreamHandle on one field without touching any
// sibling extent: the handle sees exactly the field's bytes through a
// section view, so its reads — index parse and row ranges alike — can
// never stray outside the extent. The handle inherits the archive's
// options (limits, workers, budget, context); it remains valid for the
// life of the archive's source.
func (a *ArchiveStream) Field(name string) (*StreamHandle, error) {
	ext, ok := a.extents[name]
	if !ok {
		return nil, fmt.Errorf("repro: no field %q in archive", name)
	}
	sec := streamfmt.NewSection(&a.mu, a.src, int64(ext.off), int64(ext.len))
	h, err := OpenStream(sec, a.opts...)
	if err != nil {
		return nil, fmt.Errorf("repro: archive field %q: %w", name, err)
	}
	return h, nil
}
