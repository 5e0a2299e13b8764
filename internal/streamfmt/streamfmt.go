// Package streamfmt defines the framed on-disk container used by the
// bounded-memory streaming pipeline (repro.CompressStreamOpts): a fixed
// header describing the field geometry and chunking, a sequence of
// length-prefixed chunk frames each carrying its own CRC, and a final
// index frame that seals the stream. The layout is specified in
// DESIGN.md §7.
//
//	stream := header chunk* index
//	header := magic(0xC8) version(0x01) algo(1B)
//	          uvarint(rank) uvarint(dim)... uvarint(chunkRows)
//	chunk  := tag(0x01) uvarint(len) crc32be(payload) payload
//	index  := tag(0x02) uvarint(count) uvarint(len_i)... crc32be(index body)
//
// Version 0x02 adds an optional erasure-coding layer: the header gains
// uvarint(parityK), every K consecutive chunks form a parity group, and
// the group's chunk frames are followed by one parity frame whose
// payload is the byte-wise XOR of the group's chunk payloads, each
// zero-padded to the longest payload in the group (the final group may
// hold fewer than K chunks). The sealed index records the parity frame
// lengths and each chunk payload's CRC, so a reader that loses exactly
// one chunk per group can reconstruct it byte-identically from the
// parity frame and the surviving siblings, and verify the result:
//
//	stream_v2 := header group* index
//	header    := magic(0xC8) version(0x02) algo(1B)
//	             uvarint(rank) uvarint(dim)... uvarint(chunkRows) uvarint(parityK)
//	group     := chunk{1..K} parity
//	parity    := tag(0x03) uvarint(plen) crc32be(ppayload) ppayload
//	index     := tag(0x02) uvarint(count) uvarint(len_i)...
//	             uvarint(pcount) uvarint(plen_g)... crc32be(chunkcrc_i)...
//	             crc32be(index body)
//
// Parity-free output (ParityK == 0) stays version 0x01 and bit-identical
// to the pre-parity format, so readers that predate parity keep reading
// everything a parity-free writer emits.
//
// Every multi-byte integer is an unsigned varint except the CRCs, which
// are big-endian uint32 over the bytes they cover. The chunk payloads
// are standard self-describing repro.Compress streams; the container
// does not look inside them. The index makes truncation detectable: a
// stream without a matching index frame is corrupt by definition.
package streamfmt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/codecerr"
	"repro/internal/grid"
)

const (
	// Magic is the container's first byte (0xC5 plain, 0xC6 parallel,
	// 0xC7 archive, 0xC8 stream, 0xC9 archive v2).
	Magic = 0xC8
	// Version is the parity-free container version byte.
	Version = 0x01
	// VersionParity is the container version carrying XOR parity frames.
	VersionParity = 0x02

	tagChunk  = 0x01
	tagIndex  = 0x02
	tagParity = 0x03

	// MaxParityK bounds the parity group size; beyond this a single
	// parity frame protects so many chunks that repair is nominal.
	MaxParityK = 1 << 20

	// MaxFrameLen bounds a single chunk frame's payload so a hostile
	// length prefix cannot demand an absurd allocation up front.
	MaxFrameLen = 1 << 31

	// maxDim mirrors the parallel container's per-dimension cap.
	maxDim = 1 << 40
)

// Error identities are the module-wide taxonomy from internal/codecerr
// (re-exported by the root package as repro.ErrCorrupted et al.).
var (
	// ErrCorrupt reports a malformed stream container.
	ErrCorrupt = codecerr.ErrCorrupted
	// ErrTruncated reports a container that ends mid-structure; it
	// wraps ErrCorrupt.
	ErrTruncated = codecerr.ErrTruncated
	// ErrLimit reports a container that declares resources beyond the
	// caller's Limits.
	ErrLimit = codecerr.ErrLimitExceeded
	// ErrUnsupported reports bytes that are not a stream container.
	ErrUnsupported = codecerr.ErrUnsupportedFormat
)

// Limits bounds what a Reader will agree to decode, enforced before any
// input-derived allocation. The zero value means "no limit".
type Limits struct {
	// MaxElements caps the total field elements the header may declare.
	MaxElements int64
	// MaxChunkBytes caps a single chunk frame's compressed payload.
	MaxChunkBytes int64
}

// chunkCap returns the effective per-frame payload cap.
func (l Limits) chunkCap() uint64 {
	if l.MaxChunkBytes > 0 && l.MaxChunkBytes < MaxFrameLen {
		return uint64(l.MaxChunkBytes)
	}
	return MaxFrameLen
}

// checkHeader applies the element limit to a validated header.
func (l Limits) checkHeader(h *Header) error {
	if l.MaxElements > 0 && int64(grid.Size(h.Dims)) > l.MaxElements {
		return fmt.Errorf("%w: header declares %d elements, limit %d",
			ErrLimit, grid.Size(h.Dims), l.MaxElements)
	}
	return nil
}

// readErr classifies an I/O failure encountered mid-structure: EOF
// means the container ended early (truncation); any other error is the
// reader's own failure and is propagated wrapped, not relabeled as
// corruption.
func readErr(err error, what string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w (%s)", ErrTruncated, what)
	}
	return fmt.Errorf("streamfmt: reading %s: %w", what, err)
}

// Header describes the streamed field: which algorithm compressed the
// chunks, the full field dimensions (row-major, dims[0] slowest), and
// how many dims[0]-rows each full chunk covers (the last chunk may be
// shorter).
type Header struct {
	Algo      byte
	Dims      []int
	ChunkRows int
	// ParityK is the parity group size: every K consecutive chunks are
	// followed by one XOR parity frame (the final group may be shorter).
	// Zero means no parity layer (version 0x01 container).
	ParityK int
}

// Rows returns the extent of the chunked dimension.
func (h *Header) Rows() int { return h.Dims[0] }

// RowStride returns the number of elements in one dims[0]-row.
func (h *Header) RowStride() int { return grid.Size(h.Dims) / h.Dims[0] }

// Chunks returns the number of chunk frames the header implies.
func (h *Header) Chunks() int {
	return (h.Dims[0] + h.ChunkRows - 1) / h.ChunkRows
}

// ChunkRowCount returns the number of rows in chunk i (the tail chunk
// is clipped at the field boundary).
func (h *Header) ChunkRowCount(i int) int {
	lo := i * h.ChunkRows
	n := h.ChunkRows
	if h.Dims[0]-lo < n {
		n = h.Dims[0] - lo
	}
	return n
}

// Groups returns the number of parity groups (zero without parity).
func (h *Header) Groups() int {
	if h.ParityK <= 0 {
		return 0
	}
	return (h.Chunks() + h.ParityK - 1) / h.ParityK
}

// GroupRange returns the chunk range [lo, hi) covered by parity group g.
func (h *Header) GroupRange(g int) (lo, hi int) {
	lo = g * h.ParityK
	hi = lo + h.ParityK
	if n := h.Chunks(); hi > n {
		hi = n
	}
	return lo, hi
}

func (h *Header) validate() error {
	if err := grid.Validate(h.Dims, -1); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if h.Algo == 0 {
		return fmt.Errorf("%w: zero algorithm byte", ErrCorrupt)
	}
	if h.ChunkRows < 1 || h.ChunkRows > h.Dims[0] {
		return fmt.Errorf("%w: chunk rows %d out of [1,%d]", ErrCorrupt, h.ChunkRows, h.Dims[0])
	}
	if h.ParityK < 0 || h.ParityK > MaxParityK {
		return fmt.Errorf("%w: parity group size %d out of [0,%d]", ErrCorrupt, h.ParityK, MaxParityK)
	}
	return nil
}

// Writer emits a stream container: header up front, one frame per
// WriteChunk, and the index on Finish. With parity enabled it keeps one
// running XOR accumulator — a single extra chunk-sized buffer, so the
// pipeline's bounded-memory guarantee survives — and flushes it as a
// parity frame after every K chunks and after the final partial group.
type Writer struct {
	frameLog
	w        io.Writer
	parity   []byte
	parityK  int
	groupN   int
	scratch  []byte
	expect   int
	finished bool
}

// NewWriter validates the header, writes it to w, and returns a Writer
// for the chunk frames. ParityK == 0 emits the version 0x01 layout,
// byte-identical to the pre-parity format.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	ver := byte(Version)
	if h.ParityK > 0 {
		ver = VersionParity
	}
	buf := []byte{Magic, ver, h.Algo}
	buf = binary.AppendUvarint(buf, uint64(len(h.Dims)))
	for _, d := range h.Dims {
		buf = binary.AppendUvarint(buf, uint64(d))
	}
	buf = binary.AppendUvarint(buf, uint64(h.ChunkRows))
	if h.ParityK > 0 {
		buf = binary.AppendUvarint(buf, uint64(h.ParityK))
	}
	if _, err := w.Write(buf); err != nil {
		return nil, err
	}
	return &Writer{w: w, expect: h.Chunks(), parityK: h.ParityK, frameLog: frameLog{lens: make([]uint64, 0, h.Chunks())}}, nil
}

// WriteChunk emits one chunk frame. Chunks must be written in field
// order; the Writer only checks the count against the header.
func (sw *Writer) WriteChunk(payload []byte) error {
	if sw.finished {
		return errors.New("streamfmt: WriteChunk after Finish")
	}
	if len(sw.lens) >= sw.expect {
		return fmt.Errorf("streamfmt: chunk %d exceeds header's %d chunks", len(sw.lens), sw.expect)
	}
	if len(payload) == 0 || len(payload) > MaxFrameLen {
		return fmt.Errorf("streamfmt: chunk payload length %d out of (0,%d]", len(payload), MaxFrameLen)
	}
	crc := crc32.ChecksumIEEE(payload)
	sw.scratch = sw.scratch[:0]
	sw.scratch = append(sw.scratch, tagChunk)
	sw.scratch = binary.AppendUvarint(sw.scratch, uint64(len(payload)))
	sw.scratch = binary.BigEndian.AppendUint32(sw.scratch, crc)
	if _, err := sw.w.Write(sw.scratch); err != nil {
		return err
	}
	if _, err := sw.w.Write(payload); err != nil {
		return err
	}
	sw.lens = append(sw.lens, uint64(len(payload)))
	if sw.parityK > 0 {
		sw.crcs = append(sw.crcs, crc)
		sw.xorParity(payload)
		sw.groupN++
		if sw.groupN == sw.parityK {
			return sw.writeParity()
		}
	}
	return nil
}

// xorParity folds payload into the group accumulator, zero-extending the
// accumulator when this payload is the longest seen in the group.
func (sw *Writer) xorParity(payload []byte) {
	if len(payload) > len(sw.parity) {
		old := len(sw.parity)
		if len(payload) > cap(sw.parity) {
			grown := make([]byte, len(payload))
			copy(grown, sw.parity)
			sw.parity = grown
		} else {
			sw.parity = sw.parity[:len(payload)]
			for i := old; i < len(sw.parity); i++ {
				sw.parity[i] = 0
			}
		}
	}
	for i, b := range payload {
		sw.parity[i] ^= b
	}
}

// writeParity flushes the group accumulator as one parity frame and
// resets it for the next group.
func (sw *Writer) writeParity() error {
	sw.scratch = sw.scratch[:0]
	sw.scratch = append(sw.scratch, tagParity)
	sw.scratch = binary.AppendUvarint(sw.scratch, uint64(len(sw.parity)))
	sw.scratch = binary.BigEndian.AppendUint32(sw.scratch, crc32.ChecksumIEEE(sw.parity))
	if _, err := sw.w.Write(sw.scratch); err != nil {
		return err
	}
	if _, err := sw.w.Write(sw.parity); err != nil {
		return err
	}
	sw.plens = append(sw.plens, uint64(len(sw.parity)))
	sw.groupN = 0
	sw.parity = sw.parity[:0]
	return nil
}

// ParityWritten returns the number of parity frames emitted so far.
func (sw *Writer) ParityWritten() int { return len(sw.plens) }

// Finish writes the index frame and seals the container. It fails if
// the chunk count does not match the header.
func (sw *Writer) Finish() error {
	if sw.finished {
		return errors.New("streamfmt: double Finish")
	}
	if len(sw.lens) != sw.expect {
		return fmt.Errorf("streamfmt: wrote %d chunks, header promised %d", len(sw.lens), sw.expect)
	}
	if sw.parityK > 0 && sw.groupN > 0 {
		// Seal the final partial group so every chunk is parity-covered.
		if err := sw.writeParity(); err != nil {
			return err
		}
	}
	sw.finished = true
	sw.scratch = sw.appendIndex(sw.scratch[:0], sw.parityK > 0)
	_, err := sw.w.Write(sw.scratch)
	return err
}

// frameLog records the frames of a container in order: what its
// sealing index frame encodes.
type frameLog struct {
	lens  []uint64 // chunk payload lengths
	plens []uint64 // parity payload lengths (parity containers only)
	crcs  []uint32 // chunk payload CRCs (parity containers only)
}

// appendIndex appends the index frame that seals the logged frames —
// tag, body, CRC of the body — with the parity extension when parity
// is set. Writer.Finish emits it; Reader compares against it.
func (l *frameLog) appendIndex(dst []byte, parity bool) []byte {
	dst = append(dst, tagIndex)
	body := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(l.lens)))
	for _, n := range l.lens {
		dst = binary.AppendUvarint(dst, n)
	}
	if parity {
		dst = binary.AppendUvarint(dst, uint64(len(l.plens)))
		for _, n := range l.plens {
			dst = binary.AppendUvarint(dst, n)
		}
		for _, c := range l.crcs {
			dst = binary.BigEndian.AppendUint32(dst, c)
		}
	}
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[body:]))
}

// Reader parses a stream container incrementally: NewReader consumes
// the header, Next returns chunk payloads until the index frame, which
// it verifies before reporting io.EOF.
type Reader struct {
	frameLog
	br       *bufio.Reader
	hdr      Header
	lim      Limits
	groupN   int
	groupMax uint64
	pbuf     []byte
	consumed int64
	done     bool
}

// NewReader wraps r (buffered internally) and parses the header.
func NewReader(r io.Reader) (*Reader, error) {
	return NewReaderLimits(r, Limits{})
}

// NewReaderLimits is NewReader with decode limits enforced before any
// input-derived allocation.
func NewReaderLimits(r io.Reader, lim Limits) (*Reader, error) {
	sr := &Reader{br: bufio.NewReader(r), lim: lim}
	if err := sr.readHeader(); err != nil {
		return nil, err
	}
	return sr, nil
}

func (sr *Reader) readHeader() error {
	var fixed [3]byte
	if _, err := io.ReadFull(sr.br, fixed[:]); err != nil {
		return readErr(err, "stream header")
	}
	sr.consumed += 3
	if fixed[0] != Magic || (fixed[1] != Version && fixed[1] != VersionParity) {
		return fmt.Errorf("%w: magic/version % x is not a stream container", ErrUnsupported, fixed[:2])
	}
	rank, err := sr.uvarint()
	if err != nil {
		return err
	}
	if rank == 0 || rank > grid.MaxDims {
		return fmt.Errorf("%w: rank %d", ErrCorrupt, rank)
	}
	dims := make([]int, rank)
	for i := range dims {
		d, err := sr.uvarint()
		if err != nil {
			return err
		}
		if d == 0 || d > maxDim {
			return fmt.Errorf("%w: dimension %d", ErrCorrupt, d)
		}
		dims[i] = int(d)
	}
	cr, err := sr.uvarint()
	if err != nil {
		return err
	}
	if cr == 0 || cr > uint64(dims[0]) {
		return fmt.Errorf("%w: chunk rows %d", ErrCorrupt, cr)
	}
	parityK := 0
	if fixed[1] == VersionParity {
		pk, err := sr.uvarint()
		if err != nil {
			return err
		}
		if pk == 0 || pk > MaxParityK {
			return fmt.Errorf("%w: parity group size %d out of [1,%d]", ErrCorrupt, pk, MaxParityK)
		}
		parityK = int(pk)
	}
	sr.hdr = Header{Algo: fixed[2], Dims: dims, ChunkRows: int(cr), ParityK: parityK}
	if err := sr.hdr.validate(); err != nil {
		return err
	}
	// sr.lens grows with the frames actually read: the header's chunk
	// count is only a claim, and 11 hostile bytes can declare 2^40.
	return sr.lim.checkHeader(&sr.hdr)
}

// Header returns the parsed stream header. The returned struct shares
// its Dims slice with the Reader; callers must not mutate it.
func (sr *Reader) Header() Header { return sr.hdr }

// Consumed returns the number of container bytes read so far.
func (sr *Reader) Consumed() int64 { return sr.consumed }

// ChunksRead returns the number of chunk frames returned by Next.
func (sr *Reader) ChunksRead() int { return len(sr.lens) }

// ParityRead returns the number of parity frames verified so far.
func (sr *Reader) ParityRead() int { return len(sr.plens) }

// Next returns the payload of the next chunk frame, reusing scratch
// when it is large enough. Parity frames are verified and consumed
// transparently — the linear path has every chunk's own CRC, so parity
// carries no extra information for it. It returns io.EOF after the
// index frame has been read and verified; any malformed frame, CRC
// mismatch, or truncation yields an error wrapping ErrCorrupt.
func (sr *Reader) Next(scratch []byte) ([]byte, error) {
	if sr.done {
		return nil, io.EOF
	}
	for {
		tag, err := sr.br.ReadByte()
		if err != nil {
			return nil, readErr(err, fmt.Sprintf("frame tag (want %d more chunks + index)",
				sr.hdr.Chunks()-len(sr.lens)))
		}
		sr.consumed++
		switch tag {
		case tagChunk:
			return sr.readChunk(scratch)
		case tagParity:
			if err := sr.readParity(); err != nil {
				return nil, err
			}
		case tagIndex:
			if err := sr.readIndex(); err != nil {
				return nil, err
			}
			sr.done = true
			return nil, io.EOF
		default:
			return nil, fmt.Errorf("%w: unknown frame tag 0x%02x", ErrCorrupt, tag)
		}
	}
}

func (sr *Reader) readChunk(scratch []byte) ([]byte, error) {
	if len(sr.lens) >= sr.hdr.Chunks() {
		return nil, fmt.Errorf("%w: more chunk frames than the header's %d", ErrCorrupt, sr.hdr.Chunks())
	}
	if sr.hdr.ParityK > 0 && sr.groupN == sr.hdr.ParityK {
		return nil, fmt.Errorf("%w: chunk frame where the group's parity frame is due", ErrCorrupt)
	}
	plen, err := sr.uvarint()
	if err != nil {
		return nil, err
	}
	if plen == 0 || plen > MaxFrameLen {
		return nil, fmt.Errorf("%w: chunk payload length %d", ErrCorrupt, plen)
	}
	if plen > sr.lim.chunkCap() {
		return nil, fmt.Errorf("%w: chunk payload of %d bytes, limit %d", ErrLimit, plen, sr.lim.chunkCap())
	}
	var crcb [4]byte
	if _, err := io.ReadFull(sr.br, crcb[:]); err != nil {
		return nil, readErr(err, "chunk CRC")
	}
	sr.consumed += 4
	want := binary.BigEndian.Uint32(crcb[:])
	payload, err := sr.readPayload(scratch, plen)
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("%w: chunk %d checksum mismatch", ErrCorrupt, len(sr.lens))
	}
	sr.lens = append(sr.lens, plen)
	if sr.hdr.ParityK > 0 {
		sr.crcs = append(sr.crcs, want)
		sr.groupN++
		if plen > sr.groupMax {
			sr.groupMax = plen
		}
	}
	return payload, nil
}

// readParity verifies one parity frame in place. The payload is
// streamed through the CRC in a small fixed buffer — the linear path
// never uses parity content, so it is not materialized — but its length
// still counts toward the chunk limit like any other frame.
func (sr *Reader) readParity() error {
	k := sr.hdr.ParityK
	if k == 0 {
		return fmt.Errorf("%w: parity frame in a parity-free container", ErrCorrupt)
	}
	if sr.groupN == 0 {
		return fmt.Errorf("%w: parity frame without preceding group chunks", ErrCorrupt)
	}
	if sr.groupN < k && len(sr.lens) != sr.hdr.Chunks() {
		return fmt.Errorf("%w: parity frame after %d of the group's %d chunks", ErrCorrupt, sr.groupN, k)
	}
	plen, err := sr.uvarint()
	if err != nil {
		return err
	}
	if plen > sr.lim.chunkCap() {
		return fmt.Errorf("%w: parity frame of %d bytes, limit %d", ErrLimit, plen, sr.lim.chunkCap())
	}
	if plen != sr.groupMax {
		return fmt.Errorf("%w: parity frame length %d, longest group chunk %d", ErrCorrupt, plen, sr.groupMax)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(sr.br, crcb[:]); err != nil {
		return readErr(err, "parity CRC")
	}
	sr.consumed += 4
	if sr.pbuf == nil {
		sr.pbuf = make([]byte, 32<<10)
	}
	h := crc32.NewIEEE()
	for left := plen; left > 0; {
		grab := uint64(len(sr.pbuf))
		if left < grab {
			grab = left
		}
		m, err := io.ReadFull(sr.br, sr.pbuf[:grab])
		sr.consumed += int64(m)
		if err != nil {
			return readErr(err, "parity payload")
		}
		_, _ = h.Write(sr.pbuf[:grab]) // hash.Hash.Write never errors
		left -= grab
	}
	if h.Sum32() != binary.BigEndian.Uint32(crcb[:]) {
		return fmt.Errorf("%w: parity frame %d checksum mismatch", ErrCorrupt, len(sr.plens))
	}
	sr.plens = append(sr.plens, plen)
	sr.groupN, sr.groupMax = 0, 0
	return nil
}

// readPayload reads n declared bytes without trusting n for the initial
// allocation: the buffer grows geometrically as data actually arrives,
// so a hostile length prefix on a short stream cannot force a large
// allocation.
func (sr *Reader) readPayload(scratch []byte, n uint64) ([]byte, error) {
	if n <= uint64(cap(scratch)) {
		buf := scratch[:n]
		if _, err := io.ReadFull(sr.br, buf); err != nil {
			return nil, readErr(err, "chunk payload")
		}
		sr.consumed += int64(n)
		return buf, nil
	}
	const step = 64 << 10
	buf := make([]byte, 0, step)
	for uint64(len(buf)) < n {
		grab := n - uint64(len(buf))
		if grab > step {
			grab = step
		}
		lo := len(buf)
		// geometric growth bounded by bytes actually read, not by the declared length
		buf = append(buf, make([]byte, grab)...)
		m, err := io.ReadFull(sr.br, buf[lo:])
		sr.consumed += int64(m)
		if err != nil {
			return nil, readErr(err, "chunk payload")
		}
	}
	return buf, nil
}

// readIndex requires the rest of the index frame (its tag is already
// consumed) to be, byte for byte, the one a Writer seals after the
// frames read: a non-canonical varint or a stale CRC is corruption
// here exactly as it is to OpenIndex.
func (sr *Reader) readIndex() error {
	if sr.hdr.ParityK > 0 && sr.groupN != 0 {
		return fmt.Errorf("%w: index frame before the final group's parity frame", ErrCorrupt)
	}
	if len(sr.lens) != sr.hdr.Chunks() {
		return fmt.Errorf("%w: index frame after %d of the header's %d chunks",
			ErrCorrupt, len(sr.lens), sr.hdr.Chunks())
	}
	want := sr.appendIndex(nil, sr.hdr.ParityK > 0)[1:]
	got := make([]byte, len(want))
	n, err := io.ReadFull(sr.br, got)
	sr.consumed += int64(n)
	if err != nil {
		return readErr(err, "index frame")
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%w: index frame disagrees with the frames read", ErrCorrupt)
	}
	return nil
}

// uvarint reads one varint byte by byte, bounding its size and tracking
// consumption. Reading manually (rather than binary.ReadUvarint) keeps
// the error classification exact: truncation and genuine I/O errors go
// through readErr, only an over-long encoding is corruption.
func (sr *Reader) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := sr.br.ReadByte()
		if err != nil {
			return 0, readErr(err, "varint")
		}
		sr.consumed++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return v | uint64(b)<<shift, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
}
