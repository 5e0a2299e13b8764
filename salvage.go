package repro

import (
	"fmt"
	"io"
	"math"

	"repro/internal/streamfmt"
)

// Salvage decode: best-effort recovery from a damaged stream container.
// Where DecompressStreamOpts aborts at the first bad frame, salvage uses the
// container's redundant geometry — per-chunk CRCs plus the sealing index
// frame — to verify each chunk independently, skip the damaged ones, and
// resynchronize at the next intact frame. Rows covered by lost chunks
// are filled with NaN so the output keeps the field's exact shape and
// downstream analysis can mask the holes.
//
// Salvage is the one deliberately permissive reader. The seekable path
// (OpenStream) takes the opposite stance: an index that is missing or
// fails verification is a typed ErrTruncated/ErrCorrupted refusal, and
// callers who want whatever survives are pointed here.

// RowRange is a half-open range [Lo, Hi) of dims[0]-rows.
type RowRange struct{ Lo, Hi int }

// ByteRange is a half-open range [Lo, Hi) of container byte offsets.
type ByteRange struct{ Lo, Hi int64 }

// SalvageReport accounts for what DecompressStreamSalvage recovered.
type SalvageReport struct {
	// Dims is the field geometry from the container header.
	Dims []int
	// Chunks and Recovered count the chunk frames the header promised
	// and the ones that decoded cleanly (repaired chunks included).
	Chunks, Recovered int
	// ParityK is the container's parity group size (zero: no parity).
	ParityK int
	// RepairedChunks lists the field-order indices of chunks that were
	// damaged in the container but reconstructed byte-identically from
	// their group's parity frame and siblings; they are counted in
	// Recovered, not Lost.
	RepairedChunks []int
	// DamagedParity lists parity groups whose parity frame itself was
	// damaged; chunks in those groups degrade to skip-and-report.
	DamagedParity []int
	// LostChunks lists the field-order indices of unrecoverable chunks.
	LostChunks []int
	// LostRows lists the dims[0]-row ranges filled with NaN, merged
	// across adjacent lost chunks.
	LostRows []RowRange
	// LostBytes lists the damaged container regions, where the scan
	// could still delimit them; a region reaching the end of the
	// container means frame boundaries were lost from there on.
	LostBytes []ByteRange
	// IndexOK reports that the sealing index frame verified, in which
	// case damage to one chunk cannot desynchronize its successors.
	IndexOK bool
	// Truncated reports that the container ended before its structure
	// did.
	Truncated bool
	// BytesIn and BytesOut count container bytes read and field bytes
	// written (NaN fill included).
	BytesIn, BytesOut int64
}

// Lost reports the number of unrecoverable chunks.
func (r *SalvageReport) Lost() int { return len(r.LostChunks) }

// Repaired reports the number of chunks reconstructed from parity.
func (r *SalvageReport) Repaired() int { return len(r.RepairedChunks) }

// DecompressStreamSalvage reads a (possibly damaged) stream container
// from r and writes the field to w as raw little-endian float64 bytes,
// in full: every row of the header's
// geometry is emitted, with rows from unrecoverable chunks filled with
// NaN. The report says exactly what was lost. The whole container is
// buffered in memory (resynchronization needs the tail index), and the
// chunks decode through the same worker pool as DecompressStreamOpts:
// WithLimits is enforced against the header and every frame,
// WithWorkers and WithMemoryBudget size the pool, and WithContext
// cancellation, like an error from w, stops it and returns with no
// goroutines left behind.
//
// An error is returned only when salvage is impossible (unreadable
// source, unusable header, or a limit violation), when w fails or when
// the context is cancelled; damage to chunk frames is never an error,
// it is the condition this function exists to survive.
func DecompressStreamSalvage(r io.Reader, w io.Writer, opts ...StreamOption) (_ *SalvageReport, err error) {
	defer recoverDecode(&err)
	cfg := resolveStreamConfig(opts)
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("repro: reading container: %w", err)
	}
	scan, err := streamfmt.ScanSalvage(buf, cfg.Limits.streamLimits())
	if err != nil {
		return nil, err
	}
	hdr := &scan.Header
	chunks, k, rowStride := hdr.Chunks(), hdr.ParityK, hdr.RowStride()
	chunkElems := hdr.ChunkRows * rowStride
	rep := &SalvageReport{
		Dims:      append([]int(nil), hdr.Dims...),
		Chunks:    chunks,
		ParityK:   k,
		IndexOK:   scan.IndexOK,
		Truncated: scan.Truncated,
		BytesIn:   int64(len(buf)),
	}

	// Fetch hands out the scanned frames in field order, then the
	// chunks past the scan's last frame, which have no payload.
	seq := 0
	fetch := func(jb *chunkJob) error {
		if seq == chunks {
			return io.EOF
		}
		jb.seq, jb.rows, jb.payload = seq, hdr.ChunkRowCount(seq), nil
		if seq < len(scan.Frames) {
			jb.payload = scan.Frames[seq].Payload
		}
		seq++
		return nil
	}
	work := func(jb *chunkJob) error {
		jb.vals = nil
		if jb.payload != nil {
			// A chunk that does not decode to its header shape is lost
			// like a damaged frame.
			jb.vals, _ = decodeChunk(jb.payload, jb.rows, hdr.Dims)
		}
		return nil
	}
	out := rawWriter{w: w, elemSize: 8}
	var nan []float64
	fillNaN := func(n int) error {
		if nan == nil {
			// The fill buffer is capped: a hostile header can claim an
			// astronomical row stride, and salvage (the permissive
			// reader) must stream the NaN fill rather than allocate it.
			nan = make([]float64, min(chunkElems, 1<<16))
			for j := range nan {
				nan[j] = math.NaN()
			}
		}
		for ; n > 0; n -= len(nan) {
			if err := out.write(nan[:min(n, len(nan))]); err != nil {
				return err
			}
		}
		return nil
	}
	lastEnd := scan.HeaderLen
	emit := func(jb *chunkJob) (err error) {
		var f streamfmt.FrameInfo // zero past the scan's frames: extent unknown
		if jb.seq < len(scan.Frames) {
			f = scan.Frames[jb.seq]
		}
		if k > 0 && (jb.seq%k == k-1 || jb.seq == chunks-1) {
			if g := jb.seq / k; g >= len(scan.Parity) || scan.Parity[g].Damaged {
				rep.DamagedParity = append(rep.DamagedParity, g)
			}
		}
		if jb.vals != nil {
			rep.Recovered++
			if f.Repaired {
				rep.RepairedChunks = append(rep.RepairedChunks, jb.seq)
			}
			err = out.write(jb.vals)
			jb.vals = nil
		} else {
			rep.LostChunks = append(rep.LostChunks, jb.seq)
			lo := jb.seq * hdr.ChunkRows
			rep.addLostRows(lo, lo+jb.rows)
			rep.addLostBytes(f.Offset, f.End, lastEnd, rep.BytesIn)
			err = fillNaN(jb.rows * rowStride)
		}
		if f.End > 0 {
			lastEnd = f.End
		}
		return err
	}
	workers := cfg.decodeWorkers(chunkElems, out.elemSize, chunks)
	err = runChunks(cfg.Ctx, workers, &StreamStats{}, fetch, work, emit)
	rep.BytesOut = out.n
	return rep, err
}

// addLostRows appends [lo,hi), merging with an adjacent previous range.
func (r *SalvageReport) addLostRows(lo, hi int) {
	if n := len(r.LostRows); n > 0 && r.LostRows[n-1].Hi == lo {
		r.LostRows[n-1].Hi = hi
		return
	}
	r.LostRows = append(r.LostRows, RowRange{lo, hi})
}

// addLostBytes appends the damaged region for a frame. A frame with an
// unknown extent (End == 0: structure lost) damages everything from the
// last known frame boundary to the end of the container. Every region is
// clipped to the container: a truncation that keeps a frame's length
// prefix leaves its declared end past the last byte.
func (r *SalvageReport) addLostBytes(off, end, lastEnd, total int64) {
	if end == 0 {
		off, end = lastEnd, total
	}
	end = min(end, total)
	off = min(off, end)
	if n := len(r.LostBytes); n > 0 {
		last := &r.LostBytes[n-1]
		if off <= last.Hi {
			if end > last.Hi {
				last.Hi = end
			}
			return
		}
	}
	r.LostBytes = append(r.LostBytes, ByteRange{off, end})
}
