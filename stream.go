package repro

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/floatbits"
	"repro/internal/grid"
	"repro/internal/streamfmt"
)

// Streaming compression: the field is cut into slices along dims[0],
// one self-describing Compress stream per chunk, and flows through the
// chunk engine (engine.go) instead of being materialized: fetch slices
// rows off an io.Reader of raw little-endian floats, the workers
// compress chunks concurrently, and the caller's goroutine emits framed
// chunks (internal/streamfmt) in field order. Peak memory is
// O(workers × chunk), independent of field size, which is what lets a
// rank open fields larger than its share of RAM before dumping to the
// parallel file system (the paper's §V.C deployment shape, as FRaZ and
// the bit-adaptive particle compressor stress for practical pipelines).
//
// Both directions take WithContext: cancellation (like a sink write
// error) closes the engine's stop channel, after which fetch pulls no
// further frames, the workers drain, and every pipeline goroutine exits
// before the call returns. The one blocking operation a context cannot
// interrupt is a Read/Write already in flight on the caller's reader or
// writer — teardown completes when that call returns, the same contract
// as any blocking Go I/O.
//
// The containers this pipeline seals are also randomly addressable:
// OpenStream (seek.go) rebuilds the chunk offset table from the tail
// index frame and serves arbitrary row ranges at O(touched chunks)
// cost through the same engine.

// StreamStats reports per-stream observability counters. All fields are
// totals over the whole stream; wall times are per stage (Codec summed
// across workers, so it can exceed the end-to-end time).
type StreamStats struct {
	// Chunks is the number of chunk frames processed.
	Chunks int
	// BytesIn and BytesOut count the bytes consumed from the source and
	// emitted to the sink, container framing included.
	BytesIn, BytesOut int64
	// ReadWall is time spent reading and unmarshalling input.
	ReadWall time.Duration
	// CodecWall is time spent in Compress/Decompress, summed over workers.
	CodecWall time.Duration
	// WriteWall is time spent marshalling and writing output.
	WriteWall time.Duration
	// MaxInFlight is the peak number of chunks alive in the pipeline.
	MaxInFlight int
	// BuffersAllocated is the number of chunk-sized scratch buffers the
	// pipeline allocated; it is bounded by workers+2 regardless of field
	// size (the bounded-memory guarantee the tests assert).
	BuffersAllocated int
	// ParityFrames counts parity frames handled inline: emitted on
	// compress, verified on linear decompress, skipped during fetch on
	// range reads (parity frames fetched again for a repair are counted
	// in BytesIn, not here).
	ParityFrames int
	// RepairedChunks counts chunks reconstructed from parity on the
	// seekable read path (the salvage path reports repairs in its
	// SalvageReport instead).
	RepairedChunks int
	// VerifiedChunks counts chunks decode-verified by VerifyOnWrite.
	VerifiedChunks int
}

// defaultChunkRows targets ~256Ki elements (2 MiB of float64) per
// chunk, shrunk so a chunk's raw bytes stay within maxChunkBytes when
// the caller compresses under DecodeLimits: a container written under
// limits L must round-trip under the same L, and the decoder enforces
// MaxChunkBytes against every frame payload. Raw size is the
// conservative proxy for payload size (the codecs frame their output
// within the raw footprint for all supported algorithms). The floor of
// one row stands even when a single row exceeds the cap — chunks cannot
// split rows — which the decode side then reports per frame.
func defaultChunkRows(rows, rowStride int, maxChunkBytes int64) int {
	targetElems := int64(256 << 10)
	if maxChunkBytes > 0 {
		if byElems := maxChunkBytes / 8; byElems < targetElems {
			targetElems = byElems
		}
	}
	cr := targetElems / int64(rowStride)
	if cr < 1 {
		cr = 1
	}
	if cr > int64(rows) {
		cr = int64(rows)
	}
	return int(cr) // bounded by rows and the 256Ki-element target
}

// orDefault returns ctx, or context.Background for nil.
func orDefault(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// ctxCause labels a context's error for pipeline failure reporting.
func ctxCause(ctx context.Context) error {
	return fmt.Errorf("repro: stream cancelled: %w", context.Cause(ctx))
}

// CompressStreamOpts reads a raw little-endian float field of the given
// dims from r, compresses it chunk by chunk under the point-wise
// relative bound, and writes a framed stream container (decodable by
// DecompressStreamOpts) to w. Peak memory is O(workers × chunk), not
// O(field) — and WithMemoryBudget turns that into an explicit byte
// target by deriving the unset chunk-rows/worker knobs. The chunk
// payloads are ordinary Compress streams. Elements are float64 unless
// WithFloat32 selects the narrow input width (widened exactly, identical
// container bytes); CompressParallelOpts writes the same container from
// a float64 slice already in memory.
func CompressStreamOpts(r io.Reader, w io.Writer, dims []int, relBound float64, algo Algorithm, opts ...StreamOption) (*StreamStats, error) {
	return compressStream(resolveStreamConfig(opts), r, w, dims, relBound, algo)
}

// compressStream is the pipeline behind every stream-compress entry
// point, driven by a resolved StreamConfig.
func compressStream(cfg *StreamConfig, r io.Reader, w io.Writer, dims []int, relBound float64, algo Algorithm) (*StreamStats, error) {
	ctx := orDefault(cfg.Ctx)
	if err := grid.Validate(dims, -1); err != nil {
		return nil, err
	}
	if _, err := admit(algo, boundRel, relBound); err != nil {
		return nil, err
	}
	rows := dims[0]
	rowStride := grid.Size(dims) / rows
	if cfg.ParityK < 0 || cfg.ParityK > streamfmt.MaxParityK {
		return nil, fmt.Errorf("repro: parity group size %d out of [0,%d]", cfg.ParityK, streamfmt.MaxParityK)
	}
	if cfg.MemoryBudget < 0 {
		return nil, fmt.Errorf("repro: negative memory budget %d", cfg.MemoryBudget)
	}
	parityK := cfg.ParityK
	verify := cfg.VerifyOnWrite
	copts := cfg.Compressor
	elemSize := 8
	if cfg.Float32 {
		elemSize = 4
	}
	tune := *cfg // clamp a copy: the caller's config may be reused across fields
	if tune.ChunkRows > rows {
		tune.ChunkRows = rows
	}
	chunkRows, workers := tuneCompressBudget(&tune, rowStride, elemSize, cfg.defaultWorkers())
	if chunkRows <= 0 {
		chunkRows = defaultChunkRows(rows, rowStride, cfg.Limits.maxChunkBytes())
	}
	if chunkRows > rows {
		chunkRows = rows
	}
	chunkElems := chunkRows * rowStride
	if chunkElems > 1<<28 {
		return nil, fmt.Errorf("repro: chunk of %d elements exceeds the 2 GiB chunk budget; reduce ChunkRows", chunkElems)
	}

	cw := &countingWriter{w: w}
	sw, err := streamfmt.NewWriter(cw,
		streamfmt.Header{Algo: byte(algo), Dims: dims, ChunkRows: chunkRows, ParityK: parityK})
	if err != nil {
		return nil, err
	}

	raw := make([]byte, chunkElems*elemSize) // the one raw I/O buffer of the budget formula
	var bytesIn int64
	seq, row := 0, 0
	fetch := func(jb *chunkJob) error {
		if row == rows {
			return io.EOF
		}
		n := min(chunkRows, rows-row)
		want := n * rowStride * elemSize
		if _, err := io.ReadFull(r, raw[:want]); err != nil {
			return fmt.Errorf("repro: short stream input at row %d/%d: %w", row, rows, err)
		}
		bytesIn += int64(want)
		if cap(jb.vals) < chunkElems {
			jb.vals = make([]float64, chunkElems) // once per job, so at most workers+2 ever
		}
		jb.vals = jb.vals[:n*rowStride]
		if elemSize == 8 {
			for i := range jb.vals {
				jb.vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
			}
		} else {
			for i := range jb.vals {
				jb.vals[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
			}
		}
		jb.seq, jb.rows = seq, n
		seq++
		row += n
		return nil
	}
	work := func(jb *chunkJob) (err error) {
		subDims := append([]int{jb.rows}, dims[1:]...)
		jb.payload, err = Compress(jb.vals, subDims, relBound, algo, copts)
		if err == nil && verify {
			err = verifyChunk(jb.payload, jb.vals, subDims, relBound, algo)
		}
		return err
	}
	emit := func(jb *chunkJob) error { return sw.WriteChunk(jb.payload) }

	stats := &StreamStats{}
	err = runChunks(ctx, workers, stats, fetch, work, emit)
	stats.BytesIn = bytesIn
	if verify {
		stats.VerifiedChunks = stats.Chunks
	}
	if err == nil {
		t0 := time.Now()
		err = sw.Finish()
		stats.WriteWall += time.Since(t0)
	}
	stats.ParityFrames = sw.ParityWritten()
	stats.BytesOut = cw.n
	return stats, err
}

// verifyChunk decode-verifies one sealed chunk payload against the
// source rows it encodes, asserting exactly what the algorithm
// guarantees (Table IV): NaN and ±Inf always survive, exact zeros are
// preserved where the codec keeps them, and every finite normal
// nonzero original is within the point-wise relative bound where the
// codec holds it (every relative algorithm but ZFP_P). Subnormal
// originals are skipped — below 2^-1022 the float64 quantum makes
// tight relative bounds unsatisfiable in principle.
func verifyChunk(payload []byte, src []float64, subDims []int, relBound float64, algo Algorithm) error {
	dec, err := decodeChunk(payload, subDims[0], subDims)
	if err != nil {
		return fmt.Errorf("%w: sealed chunk: %v", ErrVerifyFailed, err)
	}
	c := &codecs[algo]
	const smallestNormal = 2.2250738585072014e-308 // 2^-1022
	for i, o := range src {
		d := dec[i]
		switch {
		case math.IsNaN(o):
			if !math.IsNaN(d) {
				return fmt.Errorf("%w: NaN at element %d decoded to %g", ErrVerifyFailed, i, d)
			}
		case math.IsInf(o, 0):
			if !floatbits.Equal(d, o) {
				return fmt.Errorf("%w: %g at element %d decoded to %g", ErrVerifyFailed, o, i, d)
			}
		case floatbits.IsZero(o):
			if c.keepsZeros && !floatbits.IsZero(d) {
				return fmt.Errorf("%w: zero at element %d perturbed to %g", ErrVerifyFailed, i, d)
			}
		case math.Abs(o) < smallestNormal:
			// Subnormal original: no relative guarantee to assert.
		default:
			if c.holdsBound && math.Abs(d-o) > relBound*(1+1e-9)*math.Abs(o) {
				return fmt.Errorf("%w: bound %g violated at element %d: orig %g decoded %g",
					ErrVerifyFailed, relBound, i, o, d)
			}
		}
	}
	return nil
}

// decodeChunk decodes one chunk payload of a chunked container (a
// plain Compress stream) and checks it has the shape the container's
// header promises: rows rows of the field's trailing dims (dims[0] is
// not compared). Every chunked read decodes through it, so a chunk whose
// rank, row count, trailing dims or element count disagree with the
// header fails the same way everywhere, with ErrCorrupted.
func decodeChunk(payload []byte, rows int, dims []int) ([]float64, error) {
	dec, got, err := Decompress(payload)
	if err != nil {
		return nil, err
	}
	ok := len(got) == len(dims) && got[0] == rows
	want := rows
	for i := 1; ok && i < len(dims); i++ {
		ok = got[i] == dims[i]
		want *= dims[i]
	}
	if !ok || len(dec) != want {
		return nil, fmt.Errorf("%w: chunk decodes to shape %v (%d elements), want %d rows of %v",
			ErrCorrupted, got, len(dec), rows, dims[1:])
	}
	return dec, nil
}

// countingWriter counts bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// DecompressStreamOpts decodes a stream container from r, writing the
// field as raw little-endian float bytes (float64, or float32 under
// WithFloat32) to w. Chunks are decompressed by a worker pool and
// emitted in field order; peak memory is O(workers × chunk), and
// WithMemoryBudget caps the worker count against the container's chunk
// geometry. WithLimits is enforced against the header and every chunk
// frame before the corresponding allocation; WithContext cancellation —
// like an error from w — stops the reader from pulling further frames
// beyond those already in flight, drains the worker pool, and returns
// with no goroutines left behind.
func DecompressStreamOpts(r io.Reader, w io.Writer, opts ...StreamOption) (*StreamStats, error) {
	return decompressStream(resolveStreamConfig(opts), r, w)
}

// decompressStream is the decode pipeline behind every stream-decode
// entry point, driven by a resolved StreamConfig.
func decompressStream(cfg *StreamConfig, r io.Reader, w io.Writer) (_ *StreamStats, err error) {
	defer recoverDecode(&err)
	sr, err := streamfmt.NewReaderLimits(r, cfg.Limits.streamLimits())
	if err != nil {
		return nil, err
	}
	out := rawWriter{w: w, elemSize: 8}
	if cfg.Float32 {
		out.elemSize = 4
	}
	emit := func(jb *chunkJob) error {
		err := out.write(jb.vals)
		jb.vals = nil // written out: a recycled job holds no decoded chunk
		return err
	}
	stats, err := decodeStream(cfg, sr, out.elemSize, emit)
	if stats != nil {
		stats.BytesOut = out.n
	}
	return stats, err
}

// rawWriter is the output step of the decoders that write to an
// io.Writer: raw little-endian float64 values, or float32 when
// elemSize is 4, through one byte buffer that grows to the largest
// write and is then reused.
type rawWriter struct {
	w        io.Writer
	elemSize int
	buf      []byte
	n        int64 // bytes written
}

func (rw *rawWriter) write(vals []float64) error {
	need := len(vals) * rw.elemSize
	if cap(rw.buf) < need {
		// grows once to the largest chunk, then reused across all chunks
		rw.buf = make([]byte, need)
	}
	out := rw.buf[:need]
	if rw.elemSize == 8 {
		for i, v := range vals {
			binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
		}
	} else {
		for i, v := range vals {
			binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(float32(v)))
		}
	}
	if _, err := rw.w.Write(out); err != nil {
		return err
	}
	rw.n += int64(need)
	return nil
}

// decodeStream runs the chunks of the 0xC8 container behind sr through
// the chunk engine, handing each decoded chunk to emit in field order;
// after the last chunk, fetch requires the verified index frame.
func decodeStream(cfg *StreamConfig, sr *streamfmt.Reader, elemSize int, emit func(*chunkJob) error) (*StreamStats, error) {
	if cfg.MemoryBudget < 0 {
		return nil, fmt.Errorf("repro: negative memory budget %d", cfg.MemoryBudget)
	}
	hdr := sr.Header()
	chunks := hdr.Chunks()
	seq := 0
	fetch := func(jb *chunkJob) error {
		if seq == chunks {
			_, err := sr.Next(nil)
			if err == nil {
				err = fmt.Errorf("%w: extra frame after final chunk", ErrCorrupted)
			}
			return err // io.EOF once the index verifies
		}
		p, err := sr.Next(jb.buf)
		if err != nil {
			return err
		}
		jb.seq, jb.rows, jb.payload, jb.buf = seq, hdr.ChunkRowCount(seq), p, p
		seq++
		return nil
	}
	stats := &StreamStats{}
	workers := cfg.decodeWorkers(hdr.ChunkRows*hdr.RowStride(), elemSize, chunks)
	err := runChunks(cfg.Ctx, workers, stats, fetch, decodeWork(hdr.Dims), emit)
	stats.BytesIn = sr.Consumed()
	stats.ParityFrames = sr.ParityRead()
	return stats, err
}

// IsStreamContainer reports whether buf starts a CompressStreamOpts
// container (either the parity-free or the parity-carrying version).
func IsStreamContainer(buf []byte) bool {
	return len(buf) >= 2 && buf[0] == streamfmt.Magic &&
		(buf[1] == streamfmt.Version || buf[1] == streamfmt.VersionParity)
}

// decompressStreamBuf decodes an in-memory stream container, the
// DecompressAny path (the streaming one is DecompressStreamOpts): the
// header is parsed once and the decoded chunks are collected straight
// into the returned field.
func decompressStreamBuf(cfg *StreamConfig, buf []byte) ([]float64, []int, error) {
	sr, err := streamfmt.NewReaderLimits(bytes.NewReader(buf), cfg.Limits.streamLimits())
	if err != nil {
		return nil, nil, err
	}
	var col collector
	if _, err := decodeStream(cfg, sr, 8, col.emit); err != nil {
		return nil, nil, err
	}
	return col.field(), sr.Header().Dims, nil
}
