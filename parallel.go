package repro

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/bitio"
	"repro/internal/grid"
)

// In-memory parallel compression: CompressParallelOpts feeds a field
// that is already in memory through the stream pipeline (stream.go), so
// the result is the same sealed, seekable 0xC8 container that
// CompressStreamOpts writes — one writer per container shape. Chunks
// are slices along the slowest dimension, each compressed independently
// by the worker pool: the shared-memory analogue of the paper's
// file-per-process parallel evaluation. Prediction-based compressors
// lose a little ratio at chunk boundaries (each chunk restarts its
// predictor), which is the same trade-off MPI-rank-local compression
// makes on real systems.
//
// Earlier versions wrote a separate parallel container (magic 0xC6:
// chunk lengths up front, then the chunk streams). Nothing writes it
// any more, but DecompressAny still reads it through the chunk engine
// (engine.go), the same pipeline as every other chunked read.

const parallelMagic = 0xC6

// ErrBadChunking reports invalid parallel-compression parameters.
var ErrBadChunking = errors.New("repro: invalid chunking")

// CompressParallelOpts compresses an in-memory field under a point-wise
// relative bound using multiple cores and returns the sealed stream
// container, byte-identical to CompressStreamOpts over the field's raw
// little-endian bytes with the same options. It consumes the shared
// StreamOption set: WithWorkers, WithChunkRows and WithMemoryBudget
// size the pool and the chunks, WithParity adds parity frames,
// WithVerifyOnWrite decode-verifies each chunk before the container
// seals, WithCompressorOptions passes through per-chunk compressor
// options, and WithContext cancels the pool after at most the chunks
// already in flight. WithFloat32 is ignored: the data is float64
// already. Decode with DecompressAny, or open it with OpenStream.
func CompressParallelOpts(data []float64, dims []int, relBound float64, algo Algorithm, opts ...StreamOption) ([]byte, error) {
	if err := grid.Validate(dims, len(data)); err != nil {
		return nil, err
	}
	cfg := resolveStreamConfig(opts)
	cfg.Float32 = false
	var out bytes.Buffer
	if _, err := compressStream(cfg, &float64Reader{data: data}, &out, dims, relBound, algo); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// float64Reader serves a float64 slice as raw little-endian bytes.
type float64Reader struct {
	data []float64
	off  int // bytes served so far
}

func (r *float64Reader) Read(p []byte) (int, error) {
	if r.off == len(r.data)*8 {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && r.off < len(r.data)*8 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.data[r.off/8]))
		c := copy(p[n:], b[r.off%8:])
		n += c
		r.off += c
	}
	return n, nil
}

// decompressParallel decodes a legacy 0xC6 parallel container for
// DecompressAny: the workers follow the decode rule of decodeWorkers,
// WithLimits is enforced before any input-derived allocation or chunk
// decode, and WithContext cancels the decode after at most the chunks
// already in flight.
func decompressParallel(cfg *StreamConfig, buf []byte) ([]float64, []int, error) {
	limits := cfg.Limits
	if len(buf) < 2 {
		return nil, nil, fmt.Errorf("%w: %d-byte parallel container", ErrTruncated, len(buf))
	}
	if buf[0] != parallelMagic {
		return nil, nil, fmt.Errorf("%w: leading byte 0x%02x is not a parallel container", ErrUnsupportedFormat, buf[0])
	}
	dims, off, err := grid.ParseDims(buf[2:], grid.MaxDims)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupted, err)
	}
	off += 2
	if err := limits.checkElements(int64(grid.Size(dims))); err != nil {
		return nil, nil, err
	}
	chunksU, k := bitio.Uvarint(buf[off:])
	if k == 0 || chunksU == 0 || chunksU > uint64(dims[0]) {
		return nil, nil, fmt.Errorf("%w: chunk count %d", ErrCorrupted, chunksU)
	}
	off += k
	// Each chunk needs at least a one-byte length prefix, so a count
	// beyond the remaining bytes is structurally impossible — reject it
	// before sizing the length table off an attacker-declared count.
	if chunksU > uint64(len(buf)-off) {
		return nil, nil, fmt.Errorf("%w: %d chunks declared with %d bytes left", ErrCorrupted, chunksU, len(buf)-off)
	}
	chunks := int(chunksU)
	lengths := make([]int, chunks)
	total := 0
	for c := range lengths {
		l, k := bitio.Uvarint(buf[off:])
		if k == 0 || l > uint64(len(buf)) {
			return nil, nil, fmt.Errorf("%w: chunk %d length", ErrCorrupted, c)
		}
		if err := limits.checkChunkBytes(int64(l)); err != nil {
			return nil, nil, err
		}
		off += k
		lengths[c] = int(l)
		total += int(l)
	}
	if off+total > len(buf) {
		return nil, nil, fmt.Errorf("%w: chunk lengths overrun the container", ErrTruncated)
	}

	// Every chunk decodes before the field is allocated: a chunk's
	// decode is bounded by its own payload, while the header's geometry
	// is only a claim, so a few hostile bytes declaring billions of
	// elements fail here instead of sizing the output.
	starts := chunkStarts(dims[0], chunks)
	c := 0
	fetch := func(jb *chunkJob) error {
		if c == chunks {
			return io.EOF
		}
		jb.seq, jb.rows, jb.payload = c, starts[c+1]-starts[c], buf[off:off+lengths[c]]
		off += lengths[c]
		c++
		return nil
	}
	rowStride := grid.Size(dims) / dims[0]
	workers := cfg.decodeWorkers((dims[0]+chunks-1)/chunks*rowStride, 8, chunks)
	var col collector
	if err := runChunks(cfg.Ctx, workers, &StreamStats{}, fetch, decodeWork(dims), col.emit); err != nil {
		return nil, nil, err
	}
	return col.field(), dims, nil
}

// chunkStarts splits `rows` into `chunks` nearly equal ranges, returning
// chunks+1 boundaries.
func chunkStarts(rows, chunks int) []int {
	starts := make([]int, chunks+1)
	for c := 0; c <= chunks; c++ {
		starts[c] = rows * c / chunks
	}
	return starts
}

// IsParallelStream reports whether buf is a legacy 0xC6 parallel
// container, as written by earlier versions of CompressParallelOpts.
func IsParallelStream(buf []byte) bool {
	return len(buf) >= 2 && buf[0] == parallelMagic
}

// DecompressAny decodes any single-field container this package writes
// or has written: a plain Compress stream (0xC5), a stream container
// (0xC8), or a legacy parallel container (0xC6). WithLimits is enforced
// on whichever format the buffer carries, WithWorkers sizes the decode
// pool of the chunked formats and WithMemoryBudget tempers it against
// their chunk geometry, and WithContext cancels the decode. WithFloat32
// is ignored: the result is float64.
func DecompressAny(buf []byte, opts ...StreamOption) (_ []float64, _ []int, err error) {
	defer recoverDecode(&err)
	cfg := resolveStreamConfig(opts)
	if IsParallelStream(buf) {
		return decompressParallel(cfg, buf)
	}
	if IsStreamContainer(buf) {
		return decompressStreamBuf(cfg, buf)
	}
	if err := cfg.Ctx.Err(); err != nil {
		return nil, nil, ctxCause(cfg.Ctx)
	}
	data, dims, err := Decompress(buf)
	if err == nil {
		if lerr := cfg.Limits.checkElements(int64(len(data))); lerr != nil {
			return nil, nil, lerr
		}
	}
	return data, dims, err
}
