package repro

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/floatbits"
	"repro/internal/grid"
	"repro/internal/streamfmt"
)

// Streaming compression: the field is cut into slices along dims[0],
// one self-describing Compress stream per chunk, and flows through a
// bounded pipeline instead of being materialized: a reader goroutine
// slices rows off an io.Reader of raw
// little-endian float64s, a worker pool compresses chunks concurrently,
// and a writer goroutine emits framed chunks (internal/streamfmt) in
// field order. Peak memory is O(workers × chunk), independent of field
// size, which is what lets a rank open fields larger than its share of
// RAM before dumping to the parallel file system (the paper's §V.C
// deployment shape, as FRaZ and the bit-adaptive particle compressor
// stress for practical pipelines).
//
// Both directions take WithContext, which threads a context.Context
// through the reader/worker/writer stages: cancellation (like a sink
// write error) closes the pipeline's stop channel, after which the
// reader pulls no further frames, the worker pool drains, and every
// pipeline goroutine exits before the call returns. The one blocking
// operation a context cannot interrupt is a Read/Write already in
// flight on the caller's reader or writer — teardown completes when
// that call returns, the same contract as any blocking Go I/O.
//
// The containers this pipeline seals are also randomly addressable:
// OpenStream (seek.go) rebuilds the chunk offset table from the tail
// index frame and serves arbitrary row ranges at O(touched chunks)
// cost through the same worker-pool machinery.

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

// streamJob carries one chunk through the pipeline.
type streamJob struct {
	seq  int
	data []float64 // chunk input (compress) — freelisted
	rows int
	in   []byte // chunk payload (decompress) — freelisted after decode
	out  []byte // compressed frame payload (compress)
	dec  []float64
	err  error
	done chan struct{}
}

// inflight tracks the live-chunk high-water mark.
type inflight struct {
	cur, max atomic.Int64
}

func (f *inflight) enter() {
	c := f.cur.Add(1)
	for {
		m := f.max.Load()
		if c <= m || f.max.CompareAndSwap(m, c) {
			return
		}
	}
}

func (f *inflight) leave() { f.cur.Add(-1) }

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
	maxInFlight := workers + 2

	cw := &countingWriter{w: w}
	sw, err := streamfmt.NewWriter(cw,
		streamfmt.Header{Algo: byte(algo), Dims: dims, ChunkRows: chunkRows, ParityK: parityK})
	if err != nil {
		return nil, err
	}

	stats := &StreamStats{}
	jobs := make(chan *streamJob)
	order := make(chan *streamJob, maxInFlight)
	free := make(chan []float64, maxInFlight)
	stop := make(chan struct{})
	var fl inflight
	var codecNS atomic.Int64
	var verified atomic.Int64

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				t0 := time.Now()
				subDims := append([]int{jb.rows}, dims[1:]...)
				jb.out, jb.err = Compress(jb.data[:jb.rows*rowStride], subDims, relBound, algo, copts)
				if jb.err == nil && verify {
					jb.err = verifyChunk(jb.out, jb.data[:jb.rows*rowStride], subDims, relBound, algo)
					if jb.err == nil {
						verified.Add(1)
					}
				}
				codecNS.Add(time.Since(t0).Nanoseconds())
				close(jb.done)
			}
		}()
	}

	var readErr error
	var readWall time.Duration
	var bytesIn int64
	var allocated int
	go func() {
		defer close(order)
		defer close(jobs)
		raw := make([]byte, chunkElems*elemSize)
		for seq, row := 0, 0; row < rows; seq++ {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				readErr = ctxCause(ctx)
				return
			default:
			}
			n := chunkRows
			if rows-row < n {
				n = rows - row
			}
			var data []float64
			select {
			case data = <-free:
			default:
				if allocated < maxInFlight {
					allocated++
					// freelist fill: at most maxInFlight chunk buffers ever, the bounded-memory invariant
					data = make([]float64, chunkElems)
				} else {
					select {
					case data = <-free:
					case <-stop:
						return
					}
				}
			}
			t0 := time.Now()
			want := n * rowStride * elemSize
			if _, err := io.ReadFull(r, raw[:want]); err != nil {
				readErr = fmt.Errorf("repro: short stream input at row %d/%d: %w", row, rows, err)
				return
			}
			bytesIn += int64(want)
			if elemSize == 8 {
				for i := 0; i < n*rowStride; i++ {
					data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
				}
			} else {
				for i := 0; i < n*rowStride; i++ {
					data[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
				}
			}
			readWall += time.Since(t0)
			// per-chunk descriptor; live descriptors are bounded by the in-flight cap
			jb := &streamJob{seq: seq, data: data, rows: n, done: make(chan struct{})}
			fl.enter()
			select {
			case jobs <- jb:
			case <-stop:
				fl.leave()
				return
			}
			select {
			case order <- jb:
			case <-stop:
				fl.leave()
				return
			}
			row += n
		}
	}()

	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			close(stop)
		}
	}
	writeOne := func(jb *streamJob) {
		defer fl.leave()
		<-jb.done
		if firstErr != nil {
			return
		}
		if jb.err != nil {
			fail(fmt.Errorf("chunk %d: %w", jb.seq, jb.err))
			return
		}
		t0 := time.Now()
		err := sw.WriteChunk(jb.out)
		stats.WriteWall += time.Since(t0)
		if err != nil {
			fail(fmt.Errorf("chunk %d: %w", jb.seq, err))
			return
		}
		stats.Chunks++
		select {
		case free <- jb.data:
		default:
		}
	}
drain:
	for {
		select {
		case jb, ok := <-order:
			if !ok {
				break drain
			}
			writeOne(jb)
		case <-ctx.Done():
			fail(ctxCause(ctx))
			for jb := range order {
				writeOne(jb)
			}
			break drain
		}
	}
	wg.Wait()
	if firstErr == nil && readErr != nil {
		firstErr = readErr
	}
	stats.ReadWall = readWall
	stats.CodecWall = time.Duration(codecNS.Load())
	stats.BytesIn = bytesIn
	stats.MaxInFlight = int(fl.max.Load())
	stats.BuffersAllocated = allocated
	stats.VerifiedChunks = int(verified.Load())
	stats.ParityFrames = sw.ParityWritten()
	stats.BytesOut = cw.n
	if firstErr != nil {
		return stats, firstErr
	}
	t0 := time.Now()
	if err := sw.Finish(); err != nil {
		return stats, err
	}
	stats.WriteWall += time.Since(t0)
	stats.ParityFrames = sw.ParityWritten()
	stats.BytesOut = cw.n
	return stats, nil
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
	ctx := orDefault(cfg.Ctx)
	limits := cfg.Limits
	elemSize := 8
	if cfg.Float32 {
		elemSize = 4
	}
	if cfg.MemoryBudget < 0 {
		return nil, fmt.Errorf("repro: negative memory budget %d", cfg.MemoryBudget)
	}
	sr, err := streamfmt.NewReaderLimits(r, limits.streamLimits())
	if err != nil {
		return nil, err
	}
	hdr := sr.Header()
	dims := hdr.Dims
	rowStride := hdr.RowStride()
	expChunks := hdr.Chunks()
	workers := cfg.defaultWorkers()
	if cfg.Workers <= 0 && cfg.MemoryBudget > 0 {
		// The chunk geometry is the container's, so the budget can only
		// temper the worker count here.
		workers = budgetWorkersFor(cfg.MemoryBudget, hdr.ChunkRows*rowStride, elemSize, workers)
	}
	if workers > expChunks {
		workers = expChunks
	}
	if workers < 1 {
		workers = 1
	}
	maxInFlight := workers + 2

	stats := &StreamStats{}
	jobs := make(chan *streamJob)
	order := make(chan *streamJob, maxInFlight)
	free := make(chan []byte, maxInFlight)
	stop := make(chan struct{})
	var fl inflight
	var codecNS atomic.Int64

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				t0 := time.Now()
				jb.dec, jb.err = decodeChunk(jb.in, jb.rows, dims)
				codecNS.Add(time.Since(t0).Nanoseconds())
				select {
				case free <- jb.in:
				default:
				}
				jb.in = nil
				close(jb.done)
			}
		}()
	}

	var readErr error
	var readWall time.Duration
	var allocated int
	go func() {
		defer close(order)
		defer close(jobs)
		for seq := 0; seq < expChunks; seq++ {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				readErr = ctxCause(ctx)
				return
			default:
			}
			var scratch []byte
			select {
			case scratch = <-free:
			default:
			}
			t0 := time.Now()
			payload, err := sr.Next(scratch)
			readWall += time.Since(t0)
			if err != nil {
				readErr = err
				return
			}
			if len(payload) > cap(scratch) {
				allocated++ // streamfmt grew a fresh payload buffer
			}
			// The payload may alias scratch; hand ownership to the job.
			// per-chunk descriptor; live descriptors are bounded by the in-flight cap
			jb := &streamJob{seq: seq, in: payload, rows: hdr.ChunkRowCount(seq), done: make(chan struct{})}
			fl.enter()
			select {
			case jobs <- jb:
			case <-stop:
				fl.leave()
				return
			}
			select {
			case order <- jb:
			case <-stop:
				fl.leave()
				return
			}
		}
		// All chunks read: the next frame must be the index. Skip the
		// read when the pipeline already failed — the writer's error
		// must not race an extra pull from the source.
		select {
		case <-stop:
			return
		case <-ctx.Done():
			readErr = ctxCause(ctx)
			return
		default:
		}
		t0 := time.Now()
		_, err := sr.Next(nil)
		readWall += time.Since(t0)
		if err != io.EOF {
			if err == nil {
				err = fmt.Errorf("%w: extra frame after final chunk", ErrCorrupt)
			}
			readErr = err
		}
	}()

	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			close(stop)
		}
	}
	var out []byte
	writeOne := func(jb *streamJob) {
		defer fl.leave()
		<-jb.done
		if firstErr != nil {
			return
		}
		if jb.err != nil {
			fail(fmt.Errorf("chunk %d: %w", jb.seq, jb.err))
			return
		}
		t0 := time.Now()
		need := len(jb.dec) * elemSize
		if cap(out) < need {
			// grows once to the largest chunk, then reused across all chunks
			out = make([]byte, need)
		}
		out = out[:need]
		if elemSize == 8 {
			for i, v := range jb.dec {
				binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
			}
		} else {
			for i, v := range jb.dec {
				binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(float32(v)))
			}
		}
		_, err := w.Write(out)
		stats.WriteWall += time.Since(t0)
		if err != nil {
			fail(fmt.Errorf("chunk %d: %w", jb.seq, err))
			return
		}
		stats.Chunks++
		stats.BytesOut += int64(need)
	}
drain:
	for {
		select {
		case jb, ok := <-order:
			if !ok {
				break drain
			}
			writeOne(jb)
		case <-ctx.Done():
			fail(ctxCause(ctx))
			for jb := range order {
				writeOne(jb)
			}
			break drain
		}
	}
	wg.Wait()
	if firstErr == nil && readErr != nil {
		firstErr = readErr
	}
	stats.ReadWall = readWall
	stats.CodecWall = time.Duration(codecNS.Load())
	stats.BytesIn = sr.Consumed()
	stats.MaxInFlight = int(fl.max.Load())
	stats.BuffersAllocated = allocated
	stats.ParityFrames = sr.ParityRead()
	if firstErr != nil {
		return stats, firstErr
	}
	return stats, nil
}

// IsStreamContainer reports whether buf starts a CompressStreamOpts
// container (either the parity-free or the parity-carrying version).
func IsStreamContainer(buf []byte) bool {
	return len(buf) >= 2 && buf[0] == streamfmt.Magic &&
		(buf[1] == streamfmt.Version || buf[1] == streamfmt.VersionParity)
}

// decompressStreamBuf decodes an in-memory stream container (the
// convenience path behind DecompressAny; the streaming path is
// DecompressStreamOpts). cfg must select float64 output.
func decompressStreamBuf(cfg *StreamConfig, buf []byte) ([]float64, []int, error) {
	hr, err := streamfmt.NewReaderLimits(bytes.NewReader(buf), cfg.Limits.streamLimits())
	if err != nil {
		return nil, nil, err
	}
	dims := append([]int(nil), hr.Header().Dims...)
	var out bytes.Buffer
	if _, err := decompressStream(cfg, bytes.NewReader(buf), &out); err != nil {
		return nil, nil, err
	}
	raw := out.Bytes()
	data := make([]float64, len(raw)/8)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return data, dims, nil
}
