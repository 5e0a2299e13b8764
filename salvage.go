package repro

import (
	"encoding/binary"
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
// in full: every row of the header's geometry is emitted, with rows from
// unrecoverable chunks filled with NaN. The report says exactly what was
// lost. The whole container is buffered in memory (resynchronization
// needs the tail index), so limits.MaxElements should be set when r is
// untrusted.
//
// An error is returned only when salvage is impossible (unreadable
// source, unusable header, or a limit violation) or when w fails; damage
// to chunk frames is never an error, it is the condition this function
// exists to survive.
func DecompressStreamSalvage(r io.Reader, w io.Writer, limits *DecodeLimits) (_ *SalvageReport, err error) {
	defer recoverDecode(&err)
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("repro: reading container: %w", err)
	}
	scan, err := streamfmt.ScanSalvage(buf, limits.streamLimits())
	if err != nil {
		return nil, err
	}
	hdr := scan.Header
	rowStride := hdr.RowStride()
	rep := &SalvageReport{
		Dims:      append([]int(nil), hdr.Dims...),
		Chunks:    len(scan.Frames),
		ParityK:   hdr.ParityK,
		IndexOK:   scan.IndexOK,
		Truncated: scan.Truncated,
		BytesIn:   int64(len(buf)),
	}
	for g := range scan.Parity {
		if scan.Parity[g].Damaged {
			rep.DamagedParity = append(rep.DamagedParity, g)
		}
	}

	var out []byte
	emit := func(vals []float64) error {
		need := len(vals) * 8
		if cap(out) < need {
			// grows once to the largest chunk, then reused across all chunks
			out = make([]byte, need)
		}
		out = out[:need]
		for i, v := range vals {
			binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
		}
		if _, err := w.Write(out); err != nil {
			return err
		}
		rep.BytesOut += int64(need)
		return nil
	}

	var nanRow []float64
	row := 0
	lastEnd := scan.HeaderLen
	for i := range scan.Frames {
		f := &scan.Frames[i]
		rows := hdr.ChunkRowCount(i)
		var dec []float64
		if f.Payload != nil {
			d, derr := decodeChunk(f.Payload, rows, hdr.Dims)
			if derr != nil {
				f.Damaged, f.Reason = true, derr.Error()
			}
			dec = d
		}
		if dec != nil {
			rep.Recovered++
			if f.Repaired {
				rep.RepairedChunks = append(rep.RepairedChunks, i)
			}
			if err := emit(dec); err != nil {
				return rep, err
			}
		} else {
			rep.LostChunks = append(rep.LostChunks, i)
			rep.addLostRows(row, row+rows)
			rep.addLostBytes(f.Offset, f.End, lastEnd, int64(len(buf)))
			if nanRow == nil {
				// The fill buffer is capped: a hostile header can claim an
				// astronomical row stride, and salvage (the permissive
				// reader) must stream the NaN fill rather than allocate a
				// whole row of it up front.
				const maxFillElems = 1 << 16
				n := rowStride
				if n > maxFillElems {
					n = maxFillElems
				}
				//lint:allow allochot nil-guarded: one bounded NaN buffer allocated for the whole scan
				nanRow = make([]float64, n)
				for j := range nanRow {
					nanRow[j] = math.NaN()
				}
			}
			for j := 0; j < rows; j++ {
				for left := rowStride; left > 0; {
					n := left
					if n > len(nanRow) {
						n = len(nanRow)
					}
					if err := emit(nanRow[:n]); err != nil {
						return rep, err
					}
					left -= n
				}
			}
		}
		if f.End > 0 {
			lastEnd = f.End
		}
		row += rows
	}
	return rep, nil
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
// last known frame boundary to the end of the container.
func (r *SalvageReport) addLostBytes(off, end, lastEnd, total int64) {
	if end == 0 {
		off, end = lastEnd, total
		if off > end {
			off = end
		}
	}
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
