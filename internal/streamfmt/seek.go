package streamfmt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Seekable access: the sealing index frame at the container tail records
// every chunk's payload length, so with an io.ReadSeeker the whole chunk
// offset table can be reconstructed from the header plus the last few
// hundred bytes — no chunk payload is ever touched. OpenIndex is the
// trust boundary for that path: it accepts only a container whose index
// frame verifies (CRC) AND whose implied frame offsets tile the byte
// range between header and index exactly. Anything less — a missing,
// truncated, or unverifiable index — is a typed ErrTruncated/ErrCorrupt,
// never a silent fallback to a prefix scan (that permissive mode exists,
// but only as the explicit salvage path in ScanSalvage).

// ErrFrameDamaged reports a single frame that failed verification on
// the seekable read path; it wraps ErrCorrupt. Callers that know the
// container carries parity can catch it per frame, keep fetching, and
// attempt a RepairChunk instead of aborting the whole range read.
var ErrFrameDamaged = fmt.Errorf("%w: damaged frame", ErrCorrupt)

// StreamIndex is the parsed header plus the chunk→offset table derived
// from a verified tail index frame.
type StreamIndex struct {
	// Hdr is the container header (shared Dims slice; do not mutate).
	Hdr Header
	// HeaderLen is the container offset where chunk frames begin.
	HeaderLen int64
	// Size is the total container length in bytes.
	Size int64
	// IndexOff is the offset of the index frame's tag byte; chunk and
	// parity frames occupy [HeaderLen, IndexOff) exactly.
	IndexOff int64
	// Lens holds each chunk's payload length, from the verified index.
	Lens []uint64
	// PLens holds each parity group's payload length (v2 only).
	PLens []uint64
	// CRCs holds each chunk payload's CRC from the index (v2 only).
	CRCs []uint32

	// offsets[i] is chunk i's frame (tag byte) offset; offsets[Chunks()]
	// is IndexOff. Without parity, extents are offsets[i] through
	// offsets[i+1]; with parity interleaved, a chunk's extent ends at
	// offsets[i] + frameLen(Lens[i]) instead (use FrameExtent).
	offsets []int64
	// parityOffs[g] is parity group g's frame offset (v2 only).
	parityOffs []int64
}

// minFrameLen is the smallest possible chunk frame: tag, one-byte length
// prefix, CRC, one payload byte.
const minFrameLen = 7

// minIndexLen is the smallest possible index frame: tag, count varint,
// CRC (a zero-chunk container is invalid, but the bound stays safe).
const minIndexLen = 6

// OpenIndex parses the header and the tail index frame of the container
// in rs — never the chunk payloads — and returns the offset table for
// random chunk access. The limits are enforced before any input-derived
// allocation: MaxElements against the header geometry, MaxChunkBytes
// against every index-declared chunk length. rs is left positioned at an
// unspecified offset; callers must seek before reading.
func OpenIndex(rs io.ReadSeeker, lim Limits) (*StreamIndex, error) {
	size, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("streamfmt: seeking container end: %w", err)
	}
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("streamfmt: seeking container start: %w", err)
	}
	hr, err := NewReaderLimits(rs, lim)
	if err != nil {
		return nil, err
	}
	ix := &StreamIndex{Hdr: hr.Header(), HeaderLen: hr.Consumed(), Size: size}
	chunks := ix.Hdr.Chunks()
	// Cheapest possible sanity bound, checked before the index window is
	// even read: the declared chunk count must physically fit.
	if size-ix.HeaderLen < int64(chunks)*minFrameLen+minIndexLen {
		return nil, fmt.Errorf("%w: %d-byte container cannot hold %d chunk frames and an index",
			ErrTruncated, size, chunks)
	}
	if err := ix.findTailIndex(rs, chunks); err != nil {
		return nil, err
	}
	idxOff := ix.IndexOff

	// Rebuild the offset table — chunk frames interleaved with one
	// parity frame per group on the v2 layout — and prove it tiles
	// [HeaderLen, IndexOff) exactly; the index is not trusted until the
	// arithmetic closes.
	k := ix.Hdr.ParityK
	ix.offsets = make([]int64, chunks+1)
	if k > 0 {
		ix.parityOffs = make([]int64, ix.Hdr.Groups())
	}
	off := ix.HeaderLen
	g := 0
	for i, l := range ix.Lens {
		if l > lim.chunkCap() {
			return nil, fmt.Errorf("%w: index declares chunk %d of %d bytes, limit %d",
				ErrLimit, i, l, lim.chunkCap())
		}
		ix.offsets[i] = off
		off += frameLen(l)
		if off > idxOff {
			return nil, fmt.Errorf("%w: index lengths overrun the index frame (chunk %d ends at %d, index at %d)",
				ErrCorrupt, i, off, idxOff)
		}
		if k > 0 && (i%k == k-1 || i == chunks-1) {
			pl := ix.PLens[g]
			if pl > lim.chunkCap() {
				return nil, fmt.Errorf("%w: index declares parity frame %d of %d bytes, limit %d",
					ErrLimit, g, pl, lim.chunkCap())
			}
			ix.parityOffs[g] = off
			off += frameLen(pl)
			if off > idxOff {
				return nil, fmt.Errorf("%w: index lengths overrun the index frame (parity %d ends at %d, index at %d)",
					ErrCorrupt, g, off, idxOff)
			}
			g++
		}
	}
	if off != idxOff {
		return nil, fmt.Errorf("%w: chunk frames end at %d but the index frame begins at %d",
			ErrCorrupt, off, idxOff)
	}
	ix.offsets[chunks] = idxOff
	return ix, nil
}

// findTailIndex reads a bounded window off the container tail and
// locates the sealing index frame in it: a tagIndex byte whose body
// parses to exactly `chunks` lengths (plus parity lengths and chunk
// CRCs on the v2 layout), whose CRC verifies, and whose frame ends
// exactly at the end of the container. It fills in Lens, PLens, CRCs
// and IndexOff.
func (ix *StreamIndex) findTailIndex(rs io.ReadSeeker, chunks int) error {
	maxIndex := int64(1+binary.MaxVarintLen64+4) + int64(chunks)*binary.MaxVarintLen64
	if ix.Hdr.ParityK > 0 {
		maxIndex += int64(1+ix.Hdr.Groups())*binary.MaxVarintLen64 + 4*int64(chunks)
	}
	winStart := ix.Size - maxIndex
	if winStart < ix.HeaderLen {
		winStart = ix.HeaderLen
	}
	// The window is bounded by the post-header region of the real file,
	// whatever the (input-derived, possibly hostile) chunk count says:
	// an overflowed maxIndex must fail typed, not size an allocation.
	winLen := ix.Size - winStart
	if winLen < minIndexLen || winLen > ix.Size-ix.HeaderLen {
		return fmt.Errorf("%w: %d-chunk index window of %d bytes is impossible in a %d-byte container",
			ErrCorrupt, chunks, winLen, ix.Size)
	}
	if _, err := rs.Seek(winStart, io.SeekStart); err != nil {
		return fmt.Errorf("streamfmt: seeking container tail: %w", err)
	}
	win := make([]byte, winLen)
	if _, err := io.ReadFull(rs, win); err != nil {
		return readErr(err, "index window")
	}
	// The smallest index frame is tag + count varint + CRC; the CRC
	// makes a false match on payload bytes vanishingly unlikely.
	for start := winLen - minIndexLen; start >= 0; start-- {
		if win[start] != tagIndex {
			continue
		}
		if ix.parseIndexAt(win[start+1:]) {
			ix.IndexOff = winStart + start
			return nil
		}
	}
	return fmt.Errorf("%w: no verifiable index frame at the container tail (unsealed, truncated, or corrupt; salvage can attempt recovery)",
		ErrCorrupt)
}

// parseIndexAt parses an index body + CRC that must consume body
// exactly, and on success stores its lengths and CRCs in ix.
func (ix *StreamIndex) parseIndexAt(body []byte) bool {
	hdr := &ix.Hdr
	chunks := hdr.Chunks()
	off := 0
	count, k := binary.Uvarint(body)
	// Each length is at least one varint byte, so a count the remaining
	// body cannot possibly hold is rejected before the lengths slice is
	// allocated (a header declaring 2^40 chunks must not cost 8 TiB here).
	if k <= 0 || count != uint64(chunks) || count > uint64(len(body)) {
		return false
	}
	off += k
	lens := make([]uint64, chunks)
	for i := range lens {
		l, k := binary.Uvarint(body[off:])
		if k <= 0 || l == 0 || l > MaxFrameLen {
			return false
		}
		lens[i] = l
		off += k
	}
	var plens []uint64
	var crcs []uint32
	if hdr.ParityK > 0 {
		groups := hdr.Groups()
		pc, k := binary.Uvarint(body[off:])
		if k <= 0 || pc != uint64(groups) {
			return false
		}
		off += k
		plens = make([]uint64, groups)
		for g := range plens {
			l, k := binary.Uvarint(body[off:])
			// A parity payload is exactly as long as the group's longest
			// chunk payload; anything else is not this container's index.
			if k <= 0 || l != groupParityLen(lens, hdr, g) {
				return false
			}
			plens[g] = l
			off += k
		}
		if len(body)-off < 4*chunks {
			return false
		}
		crcs = make([]uint32, chunks)
		for i := range crcs {
			crcs[i] = binary.BigEndian.Uint32(body[off:])
			off += 4
		}
	}
	if len(body)-off != 4 {
		return false
	}
	if crc32.ChecksumIEEE(body[:off]) != binary.BigEndian.Uint32(body[off:]) {
		return false
	}
	ix.Lens, ix.PLens, ix.CRCs = lens, plens, crcs
	return true
}

// groupParityLen returns the parity payload length group g must have:
// the longest chunk payload in the group.
func groupParityLen(lens []uint64, hdr *Header, g int) uint64 {
	lo, hi := hdr.GroupRange(g)
	var max uint64
	for i := lo; i < hi; i++ {
		if lens[i] > max {
			max = lens[i]
		}
	}
	return max
}

// frameLen returns the full on-disk frame size for a payload of l
// bytes: tag, length varint, CRC, payload.
func frameLen(l uint64) int64 {
	return int64(1+uvarintLen(l)+4) + int64(l)
}

// uvarintLen returns the encoded width of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// verifyFrame checks one complete frame region (tag byte through
// payload) against the tag and payload length the index gives it,
// returning the payload or a rejection reason.
func verifyFrame(frame []byte, tag byte, want uint64) ([]byte, string) {
	if frame[0] != tag {
		return nil, fmt.Sprintf("frame tag 0x%02x", frame[0])
	}
	plen, k := binary.Uvarint(frame[1:])
	if k <= 0 || plen != want {
		return nil, fmt.Sprintf("length prefix %d disagrees with index (%d)", plen, want)
	}
	// A corrupted, non-canonically-wide varint can claim the right value
	// in too many bytes; the CRC and payload must still fit the extent
	// the index implies.
	crcOff := 1 + k
	if crcOff+4+int(want) != len(frame) {
		return nil, "length prefix width disagrees with index extent"
	}
	crc := binary.BigEndian.Uint32(frame[crcOff:])
	payload := frame[crcOff+4:]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, "checksum mismatch"
	}
	return payload, ""
}

// xorInto folds src into acc; src is never longer than acc (parity
// payloads span the group's longest chunk).
func xorInto(acc, src []byte) {
	for i, b := range src {
		acc[i] ^= b
	}
}

// Chunks returns the number of chunk frames in the container.
func (ix *StreamIndex) Chunks() int { return len(ix.Lens) }

// ParityK returns the parity group size (zero without parity).
func (ix *StreamIndex) ParityK() int { return ix.Hdr.ParityK }

// FrameExtent returns chunk i's frame byte range [off, end) — tag byte
// through the end of the payload.
func (ix *StreamIndex) FrameExtent(i int) (off, end int64) {
	off = ix.offsets[i]
	// OpenIndex proved every Lens entry ≤ MaxFrameLen and tiling the file span, so frameLen cannot wrap
	return off, off + frameLen(ix.Lens[i])
}

// ParityExtent returns parity group g's frame byte range [off, end).
func (ix *StreamIndex) ParityExtent(g int) (off, end int64) {
	off = ix.parityOffs[g]
	return off, off + frameLen(ix.PLens[g])
}

// ExtentBytes returns the total container bytes spanned by the chunk
// frames [c0, c1) — the exact amount a range read must fetch. With
// parity interleaved the span includes interior parity frames (they sit
// between the chunks) but never a parity frame trailing chunk c1-1.
func (ix *StreamIndex) ExtentBytes(c0, c1 int) int64 {
	if c1 <= c0 {
		return 0
	}
	_, end := ix.FrameExtent(c1 - 1)
	return end - ix.offsets[c0]
}

// FrameReader reads a contiguous run of chunk frames [c0, c1) whose
// extents are known from the index, CRC-verifying each frame; parity
// frames interleaved in the run are skipped (they are counted in
// BytesRead but never verified — the chunk CRCs already cover the
// data). r must be positioned at chunk c0's frame offset; the reader
// consumes exactly ExtentBytes(c0, c1) bytes from it on a clean pass.
type FrameReader struct {
	ix     *StreamIndex
	br     *bufio.Reader
	next   int
	end    int
	pos    int64
	read   int64
	parity int
}

// Frames returns a FrameReader over chunks [c0, c1) of r.
func (ix *StreamIndex) Frames(r io.Reader, c0, c1 int) *FrameReader {
	return &FrameReader{ix: ix, br: bufio.NewReader(r), next: c0, end: c1, pos: ix.offsets[c0]}
}

// Next returns the next chunk's CRC-verified payload and its field-order
// sequence number, reusing scratch when it is large enough. The payload
// aliases frame, which is the full frame buffer (scratch or a fresh
// allocation) — callers recycle frame, not payload, so buffer capacity
// is not lost to the frame header prefix. It returns io.EOF after chunk
// end-1. Allocating up front from the index length is safe here, unlike
// the forward path's grow-as-bytes-arrive discipline: OpenIndex has
// already proven the bytes exist inside the container and capped every
// length against the limits.
//
// A frame that fails verification yields an error wrapping
// ErrFrameDamaged, and the reader stays usable: the damaged frame's
// bytes are already consumed, so the next call moves on to the
// following chunk. Callers with parity available can record the
// sequence number and repair it after the pass.
func (fr *FrameReader) Next(scratch []byte) (payload, frame []byte, seq int, err error) {
	if fr.next >= fr.end {
		return nil, nil, fr.next, io.EOF
	}
	i := fr.next
	off, end := fr.ix.FrameExtent(i)
	if skip := off - fr.pos; skip > 0 {
		// Interior parity frame(s) sit between the previous chunk and
		// this one; discard them unread.
		if _, err := fr.br.Discard(int(skip)); err != nil {
			return nil, nil, i, readErr(err, fmt.Sprintf("parity frame before chunk %d", i))
		}
		fr.pos = off
		fr.read += skip
		fr.parity++
	}
	n := int(end - off)
	frame = scratch
	if n > cap(frame) {
		frame = make([]byte, n)
	}
	frame = frame[:n]
	if _, err := io.ReadFull(fr.br, frame); err != nil {
		return nil, nil, i, readErr(err, fmt.Sprintf("chunk %d frame", i))
	}
	fr.pos = end
	fr.read += int64(n)
	fr.next++
	payload, reason := verifyFrame(frame, tagChunk, fr.ix.Lens[i])
	if payload == nil {
		return nil, nil, i, fmt.Errorf("%w: chunk %d: %s", ErrFrameDamaged, i, reason)
	}
	return payload, frame, i, nil
}

// BytesRead returns the container bytes consumed so far.
func (fr *FrameReader) BytesRead() int64 { return fr.read }

// ParitySkipped returns the number of interior parity frames discarded.
func (fr *FrameReader) ParitySkipped() int { return fr.parity }

// RepairChunk reconstructs chunk seq of a parity container from rs by
// XOR-combining the group's parity frame with the surviving sibling
// chunk frames, each fetched with its own seek and CRC-verified. The
// result is truncated to the index length and proven against the chunk
// CRC the sealed index recorded. It returns the payload and the
// container bytes fetched; any second loss in the group (a damaged
// sibling or parity frame) is a typed ErrCorrupt — repair covers
// exactly one loss per group. rs is left at an unspecified offset.
func (ix *StreamIndex) RepairChunk(rs io.ReadSeeker, seq int) (payload []byte, fetched int64, err error) {
	k := ix.Hdr.ParityK
	if k == 0 {
		return nil, 0, fmt.Errorf("%w: chunk %d: no parity frames to repair from", ErrCorrupt, seq)
	}
	g := seq / k
	pOff, pEnd := ix.ParityExtent(g)
	acc, err := fetchVerified(rs, pOff, pEnd, tagParity, ix.PLens[g],
		fmt.Sprintf("parity frame for group %d", g))
	fetched = pEnd - pOff
	if err != nil {
		return nil, fetched, err
	}
	lo, hi := ix.Hdr.GroupRange(g)
	for i := lo; i < hi; i++ {
		if i == seq {
			continue
		}
		off, end := ix.FrameExtent(i)
		sib, err := fetchVerified(rs, off, end, tagChunk, ix.Lens[i],
			fmt.Sprintf("sibling chunk %d needed to repair chunk %d", i, seq))
		fetched += end - off
		if err != nil {
			return nil, fetched, err
		}
		xorInto(acc, sib)
	}
	rec := acc[:ix.Lens[seq]]
	if crc32.ChecksumIEEE(rec) != ix.CRCs[seq] {
		return nil, fetched, fmt.Errorf("%w: chunk %d: parity reconstruction failed its recorded CRC", ErrCorrupt, seq)
	}
	return rec, fetched, nil
}

// fetchVerified seeks to one frame, reads its full extent, and verifies
// it, returning a payload that owns its backing array.
func fetchVerified(rs io.ReadSeeker, off, end int64, tag byte, want uint64, what string) ([]byte, error) {
	if _, err := rs.Seek(off, io.SeekStart); err != nil {
		return nil, fmt.Errorf("streamfmt: seeking %s: %w", what, err)
	}
	// repair path is cold: it runs once per damaged frame, never on clean reads
	// extents come from an OpenIndex whose lengths passed the caller's Limits and the tiling proof — the bytes exist inside the container
	frame := make([]byte, end-off)
	if _, err := io.ReadFull(rs, frame); err != nil {
		return nil, readErr(err, what)
	}
	payload, reason := verifyFrame(frame, tag, want)
	if payload == nil {
		return nil, fmt.Errorf("%w: %s: %s", ErrCorrupt, what, reason)
	}
	return payload, nil
}
