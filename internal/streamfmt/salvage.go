package streamfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Salvage scan: structural recovery of a damaged stream container.
//
// A normal Reader aborts at the first malformed frame because it cannot
// trust anything downstream of damage. With the whole container in
// memory the geometry can be re-derived from two redundant sources —
// the per-frame length prefixes and the sealing index frame — so
// undamaged chunks on both sides of a corrupted frame are still
// recoverable:
//
//   - If OpenIndex trusts the tail index frame (its CRC verifies and
//     its lengths tile the container), the index fixes every frame's
//     extent exactly, so a chunk whose length prefix was destroyed does
//     not desynchronize the frames after it.
//   - Without the index (damaged or truncated away), the scan walks
//     frames forward trusting each length prefix; a chunk that fails
//     its CRC but has a plausible extent is skipped in place, and the
//     scan stops at the first structural break (everything after is
//     lost).
//
// The scan assumes in-place corruption (bit rot, zero-fill, torn
// writes) — inserted or deleted bytes shift all downstream offsets and
// degrade to the forward-scan behavior.
//
// Parity containers (version 0x02) upgrade the index-anchored scan from
// damage-tolerant to damage-repairing: a group that lost exactly one
// chunk, with its parity frame and all sibling chunks intact, gets that
// chunk reconstructed by StreamIndex.RepairChunk, byte-identically and
// re-verified against the chunk CRC recorded in the sealed index. The
// forward scan cannot repair — without the index there is no trusted
// per-chunk CRC to prove a reconstruction against — so index loss
// degrades to skip-and-report.

// FrameInfo describes one frame's salvage outcome.
type FrameInfo struct {
	// Seq is the chunk's field-order index (the group's, for a parity
	// frame).
	Seq int
	// Offset and End delimit the frame (tag byte through payload) in
	// the container. The forward scan may delimit a frame by its length
	// prefix whose End lies past the end of a truncated container.
	Offset, End int64
	// Len is the frame's payload length (from the index when available,
	// else the frame's own prefix).
	Len uint64
	// Payload is the CRC-verified payload, nil when damaged.
	Payload []byte
	// Damaged reports that the frame could not be verified.
	Damaged bool
	// Repaired reports that the payload was reconstructed from the
	// group's parity frame and siblings (and re-verified) rather than
	// read intact.
	Repaired bool
	// Reason says why a damaged frame was rejected.
	Reason string
}

// ScanReport is the result of a salvage scan.
type ScanReport struct {
	Header Header
	// HeaderLen is the container offset where frames begin.
	HeaderLen int64
	// Frames holds the chunk frames the scan delimited, in field order
	// (Frames[i].Seq == i). Under a verified index that is every chunk
	// of the header; otherwise the list ends where the forward scan
	// lost the frame structure, and every chunk past its last entry is
	// lost with unknown extent. Its length is bounded by the
	// container's bytes, never by the header's chunk count.
	Frames []FrameInfo
	// Parity holds the parity frames the scan delimited, one per group
	// in order (nil for parity-free containers); a group past its last
	// entry lost its parity frame.
	Parity []FrameInfo
	// IndexOK reports whether OpenIndex accepted the tail index frame;
	// when true, frame extents come from the index and a damaged frame
	// cannot desynchronize its successors.
	IndexOK bool
	// Truncated reports that the container ended before its structure
	// did (the failure shape of an interrupted dump).
	Truncated bool
}

// ScanSalvage scans an in-memory stream container, verifying what it
// can and repairing single-loss parity groups when the container
// carries parity frames and a verified index. It fails only when the
// header itself is unusable (no geometry to salvage against) or
// violates lim; any damage past the header is reported per frame
// instead. lim.MaxChunkBytes is applied per frame, so under a verified
// index an oversized chunk is lost alone.
func ScanSalvage(buf []byte, lim Limits) (*ScanReport, error) {
	sr, err := NewReaderLimits(bytes.NewReader(buf), lim)
	if err != nil {
		return nil, err
	}
	rep := &ScanReport{Header: sr.Header(), HeaderLen: sr.Consumed()}
	rs := bytes.NewReader(buf)
	ix, err := OpenIndex(rs, Limits{MaxElements: lim.MaxElements})
	if err != nil {
		scanForward(buf, rep, lim)
		return rep, nil
	}
	rep.IndexOK = true
	verify := func(seq int, off, end int64, tag byte, want uint64) FrameInfo {
		f := FrameInfo{Seq: seq, Offset: off, End: end, Len: want}
		if want > lim.chunkCap() {
			f.Reason = fmt.Sprintf("chunk of %d bytes exceeds limit %d", want, lim.chunkCap())
		} else {
			f.Payload, f.Reason = verifyFrame(buf[off:end], tag, want)
		}
		f.Damaged = f.Payload == nil
		return f
	}
	rep.Frames = make([]FrameInfo, ix.Chunks())
	for i := range rep.Frames {
		off, end := ix.FrameExtent(i)
		rep.Frames[i] = verify(i, off, end, tagChunk, ix.Lens[i])
	}
	for g := range ix.PLens {
		off, end := ix.ParityExtent(g)
		p := verify(g, off, end, tagParity, ix.PLens[g])
		rep.Parity = append(rep.Parity, p)
		lo, hi := rep.Header.GroupRange(g)
		lost, n := 0, 0
		for i := lo; i < hi; i++ {
			if rep.Frames[i].Damaged {
				lost, n = i, n+1
			}
		}
		if p.Damaged || n != 1 {
			continue
		}
		// A reconstruction that fails the index's chunk CRC leaves the
		// chunk lost: repair never invents data.
		if payload, _, err := ix.RepairChunk(rs, lost); err == nil {
			f := &rep.Frames[lost]
			f.Payload, f.Damaged, f.Repaired, f.Reason = payload, false, true, ""
		}
	}
	return rep, nil
}

// scanForward walks frames trusting each length prefix (the no-index
// fallback) and appends every frame it delimits to rep. A frame that
// fails its CRC keeps its extent and is skipped in place; the first
// structural break ends the scan and marks the container truncated.
func scanForward(buf []byte, rep *ScanReport, lim Limits) {
	k := rep.Header.ParityK
	chunks := rep.Header.Chunks()
	off := rep.HeaderLen
	// next delimits the frame at off into list and reports whether the
	// scan can go on past it.
	next := func(list *[]FrameInfo, seq int, tag byte) bool {
		f, ok := forwardFrame(buf, off, tag, lim)
		if f.End > 0 {
			f.Seq = seq
			*list = append(*list, f)
		}
		off = f.End
		return ok
	}
	for i := 0; i < chunks; i++ {
		closesGroup := k > 0 && (i%k == k-1 || i == chunks-1)
		if !next(&rep.Frames, i, tagChunk) || closesGroup && !next(&rep.Parity, i/k, tagParity) {
			rep.Truncated = true
			return
		}
	}
}

// forwardFrame parses the frame at off by its own length prefix. It
// returns ok when the next frame starts at f.End. Otherwise the frame
// structure is lost there, and f is delimited (End > 0) only when its
// prefix parsed but the frame runs past the end of the container.
func forwardFrame(buf []byte, off int64, tag byte, lim Limits) (f FrameInfo, ok bool) {
	if off >= int64(len(buf)) || buf[off] != tag {
		return f, false
	}
	plen, k := binary.Uvarint(buf[off+1:])
	if k <= 0 || plen == 0 || plen > lim.chunkCap() {
		return f, false
	}
	f.Offset, f.Len = off, plen
	f.End = off + int64(1+k+4) + int64(plen)
	if f.End > int64(len(buf)) {
		f.Damaged, f.Reason = true, "frame extends past the container"
		return f, false
	}
	crcOff := off + int64(1+k)
	payload := buf[crcOff+4 : f.End]
	if crc32.ChecksumIEEE(payload) == binary.BigEndian.Uint32(buf[crcOff:]) {
		f.Payload = payload
	} else {
		f.Damaged, f.Reason = true, "checksum mismatch"
	}
	return f, true
}
