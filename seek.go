package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/streamfmt"
)

// Seekable random-access decode over the 0xC8 stream container. The
// paper's transformation is point-wise and the container's chunks are
// independent self-describing streams, so any contiguous run of
// dims[0]-rows can be reconstructed from just the chunks that cover it.
// OpenStream parses the header plus the sealing tail index frame —
// never the chunk payloads — and the resulting StreamHandle maps row
// ranges to chunk extents, seeks straight to the first touched frame,
// and decodes only the touched chunks through a bounded worker pool.
// A sub-volume read out of a huge post-hoc analysis dump therefore
// costs O(touched chunks), not O(prefix).
//
// Trust model: the handle trusts the index only after streamfmt has
// verified its CRC and proven that the lengths it declares tile the
// byte range between header and index exactly; every fetched chunk is
// still CRC-checked individually before decode. A container whose index
// is missing or unverifiable fails OpenStream with a typed
// ErrTruncated/ErrCorrupted — the permissive prefix-scanning mode is
// only available as the explicit DecompressStreamSalvage path.

// StreamHandle provides random row access to a stream container. Range
// reads serialize on the handle (the underlying ReadSeeker has a single
// position); open one handle per concurrent reader for parallel ranges.
type StreamHandle struct {
	mu    sync.Mutex
	src   io.ReadSeeker
	ix    *streamfmt.StreamIndex
	cfg   *StreamConfig
	stats StreamStats
}

// OpenStream opens a seekable view of the stream container in src,
// parsing the header and the tail index frame only. The container's
// chunk payloads are not read, let alone decoded, until a range read
// touches them. It takes the same StreamOption set as the other entry
// points: WithLimits is enforced against the header geometry and every
// index-declared chunk length before any input-derived allocation,
// WithContext sets the default context for ReadRows/ReadRows32 (the
// Ctx-suffixed read methods override it per call), and WithWorkers /
// WithMemoryBudget size the per-read decode pool.
func OpenStream(src io.ReadSeeker, opts ...StreamOption) (_ *StreamHandle, err error) {
	defer recoverDecode(&err)
	cfg := resolveStreamConfig(opts)
	ix, err := streamfmt.OpenIndex(src, cfg.Limits.streamLimits())
	if err != nil {
		return nil, err
	}
	return &StreamHandle{src: src, ix: ix, cfg: cfg}, nil
}

// Rows returns the extent of the chunked (slowest) dimension.
func (h *StreamHandle) Rows() uint64 { return uint64(h.ix.Hdr.Rows()) }

// RowStride returns the number of field elements in one dims[0]-row.
func (h *StreamHandle) RowStride() int { return h.ix.Hdr.RowStride() }

// Chunks returns the number of chunk frames in the container.
func (h *StreamHandle) Chunks() int { return h.ix.Chunks() }

// Dims returns a copy of the field dimensions (dims[0] slowest).
func (h *StreamHandle) Dims() []int {
	return append([]int(nil), h.ix.Hdr.Dims...)
}

// Algorithm returns the algorithm that compressed the chunks.
func (h *StreamHandle) Algorithm() Algorithm { return Algorithm(h.ix.Hdr.Algo) }

// Stats returns cumulative counters over the handle's range reads:
// chunks decoded, container bytes fetched (BytesIn), field bytes
// produced (BytesOut), per-stage wall time, and the buffer accounting
// of the bounded pipeline. Open-time header/index bytes are not
// counted — Stats measures what random access actually fetched.
func (h *StreamHandle) Stats() StreamStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// ReadRows decodes rows [start, start+count) of the field into dst,
// which must hold at least count×RowStride() elements. Only the chunks
// covering the range are fetched and decoded; partial chunks at either
// end are trimmed to the requested rows. The reconstruction is
// byte-identical to the corresponding slice of a full
// DecompressStreamOpts pass.
func (h *StreamHandle) ReadRows(dst []float64, start, count uint64) error {
	return h.ReadRowsCtx(h.cfg.Ctx, dst, start, count)
}

// ReadRowsCtx is ReadRows under a context: cancellation stops the
// fetch/decode pipeline after at most the chunks already in flight and
// returns the context's error with no goroutines left behind.
func (h *StreamHandle) ReadRowsCtx(ctx context.Context, dst []float64, start, count uint64) (err error) {
	defer recoverDecode(&err)
	need, err := h.rangeElems(uint64(len(dst)), start, count)
	if err != nil || need == 0 {
		return err
	}
	dst = dst[:need]
	return h.readRows(ctx, start, count, 8*int64(need), func(elemOff int, vals []float64) {
		copy(dst[elemOff:], vals)
	})
}

// ReadRows32 is ReadRows with float32 output: chunks decode on the
// float64 worker path and each element is narrowed at the copy into
// dst, mirroring DecompressStreamOpts under WithFloat32 (narrowing adds
// at most a 2⁻²⁴ relative rounding step on top of the stream's bound).
func (h *StreamHandle) ReadRows32(dst []float32, start, count uint64) error {
	return h.ReadRows32Ctx(h.cfg.Ctx, dst, start, count)
}

// ReadRows32Ctx is ReadRows32 under a context.
func (h *StreamHandle) ReadRows32Ctx(ctx context.Context, dst []float32, start, count uint64) (err error) {
	defer recoverDecode(&err)
	need, err := h.rangeElems(uint64(len(dst)), start, count)
	if err != nil || need == 0 {
		return err
	}
	dst = dst[:need]
	return h.readRows(ctx, start, count, 4*int64(need), func(elemOff int, vals []float64) {
		for i, v := range vals {
			dst[elemOff+i] = float32(v)
		}
	})
}

// rangeElems validates a row range against the field geometry and the
// destination capacity, returning the element count it covers.
func (h *StreamHandle) rangeElems(dstLen, start, count uint64) (uint64, error) {
	rows := h.Rows()
	if start > rows || count > rows-start {
		return 0, fmt.Errorf("repro: row range [%d,+%d) outside the stream's %d rows", start, count, rows)
	}
	need := count * uint64(h.RowStride())
	if dstLen < need {
		return 0, fmt.Errorf("repro: destination holds %d elements, range needs %d", dstLen, need)
	}
	return need, nil
}

// readRows is the width-independent range read: it seeks once to the
// first touched frame and runs the chunk engine over the touched chunks.
// Fetch makes one sequential pass through an exact-extent LimitReader,
// setting aside frames that fail verification in a parity container;
// after the pass the source position is free for repair seeks, and
// fetch then reconstructs each of those chunks from its group's parity
// frame and siblings. The caller's goroutine trims every decoded chunk
// to the requested rows and hands them to put with their element offset
// in the destination.
func (h *StreamHandle) readRows(ctx context.Context, start, count uint64, outBytes int64, put func(elemOff int, vals []float64)) error {
	ctx = orDefault(ctx)
	if err := ctx.Err(); err != nil {
		return ctxCause(ctx)
	}
	hdr := &h.ix.Hdr
	stride := uint64(hdr.RowStride())
	chunkRows := uint64(hdr.ChunkRows)
	c0 := int(start / chunkRows)
	c1 := int((start+count-1)/chunkRows) + 1

	h.mu.Lock()
	defer h.mu.Unlock()

	off0, _ := h.ix.FrameExtent(c0)
	if _, err := h.src.Seek(off0, io.SeekStart); err != nil {
		return fmt.Errorf("repro: seeking chunk %d at offset %d: %w", c0, off0, err)
	}
	fr := h.ix.Frames(io.LimitReader(h.src, h.ix.ExtentBytes(c0, c1)), c0, c1)

	var damaged []int
	var repairBytes int64
	repaired := 0
	pass := true
	fetch := func(jb *chunkJob) error {
		for pass {
			payload, frame, seq, err := fr.Next(jb.buf)
			switch {
			case err == io.EOF:
				pass = false
			case errors.Is(err, streamfmt.ErrFrameDamaged) && h.ix.ParityK() > 0:
				// The reader has already moved past the bad frame.
				damaged = append(damaged, seq)
			case err != nil:
				return err
			default:
				jb.seq, jb.rows, jb.payload, jb.buf = seq, hdr.ChunkRowCount(seq), payload, frame
				return nil
			}
		}
		if len(damaged) == 0 {
			return io.EOF
		}
		seq := damaged[0]
		damaged = damaged[1:]
		payload, fetched, err := h.ix.RepairChunk(h.src, seq)
		repairBytes += fetched
		if err != nil {
			return fmt.Errorf("chunk %d: repair failed: %w", seq, err)
		}
		repaired++
		jb.seq, jb.rows, jb.payload = seq, hdr.ChunkRowCount(seq), payload
		return nil
	}
	emit := func(jb *chunkJob) error {
		lo := uint64(jb.seq) * chunkRows
		gLo, gHi := max(start, lo), min(start+count, lo+uint64(jb.rows))
		put(int((gLo-start)*stride), jb.vals[(gLo-lo)*stride:(gHi-lo)*stride])
		jb.vals = nil
		return nil
	}
	workers := h.cfg.decodeWorkers(hdr.ChunkRows*hdr.RowStride(), 8, c1-c0)
	err := runChunks(ctx, workers, &h.stats, fetch, decodeWork(hdr.Dims), emit)
	h.stats.BytesIn += fr.BytesRead() + repairBytes
	h.stats.ParityFrames += fr.ParitySkipped()
	h.stats.RepairedChunks += repaired
	if err != nil {
		return err
	}
	h.stats.BytesOut += outBytes
	return nil
}
