package repro

import (
	"context"
	"runtime"
)

// The unified options API. Every concurrent or limit-aware entry point
// in the module — stream compress/decompress, stream salvage,
// CompressParallelOpts, DecompressAny, the seekable OpenStream path, and
// both archive paths — consumes the same StreamOption functional options
// resolved into one StreamConfig.
//
//	stats, err := repro.CompressStreamOpts(src, dst, dims, 1e-3, repro.SZT,
//		repro.WithParity(16), repro.WithMemoryBudget(64<<20))
//
// Options that a given entry point has no use for are ignored by it
// (WithParity on a decode, WithFloat32 on DecompressAny and
// DecompressStreamSalvage); the ctx and DecodeLimits test tables keep
// the ones that matter — context and limits — from being silently
// dropped by future wrappers.

// StreamConfig is the resolved configuration a []StreamOption builds.
// The zero value means "all defaults"; fields left zero are defaulted
// by the entry point that consumes the config. Callers normally never
// construct one — they pass StreamOption values — but the struct is
// exported so tooling and tests can inspect what a set of options
// resolves to.
type StreamConfig struct {
	// Workers is the worker-pool size (default GOMAXPROCS, clamped to
	// the work actually available).
	Workers int
	// ChunkRows is the number of dims[0]-rows per stream chunk
	// (default: derived — see WithChunkRows and WithMemoryBudget).
	ChunkRows int
	// ParityK, when positive, makes stream containers self-healing with
	// one XOR parity frame per K data chunks.
	ParityK int
	// VerifyOnWrite decode-verifies every sealed chunk against its
	// source before the container commits.
	VerifyOnWrite bool
	// MemoryBudget, when positive, is the target peak resident buffer
	// memory in bytes; unset chunk-rows and worker knobs are derived
	// from it (see WithMemoryBudget).
	MemoryBudget int64
	// Limits bounds decode-side resource commitments; on the compress
	// side MaxChunkBytes also caps the default chunk sizing so the
	// emitted container round-trips under the same limits.
	Limits *DecodeLimits
	// Ctx carries cancellation through every pipeline stage.
	Ctx context.Context
	// Compressor passes through per-chunk compressor options.
	Compressor *Options
	// Float32 selects raw little-endian float32 element I/O (widened to
	// float64 internally; containers stay width-independent).
	Float32 bool
}

// StreamOption configures one entry point of the streaming, salvage,
// parallel, archive, seekable-read, or DecompressAny API.
type StreamOption func(*StreamConfig)

// resolveStreamConfig folds opts into a fresh config. Nil options are
// tolerated so callers can pass conditional slices without filtering.
func resolveStreamConfig(opts []StreamOption) *StreamConfig {
	cfg := &StreamConfig{}
	for _, o := range opts {
		if o != nil {
			o(cfg)
		}
	}
	cfg.Ctx = orDefault(cfg.Ctx)
	return cfg
}

// WithWorkers sets the worker-pool size (default GOMAXPROCS, clamped to
// the available work: touched chunks on reads, field chunks on writes).
func WithWorkers(n int) StreamOption {
	return func(c *StreamConfig) { c.Workers = n }
}

// WithLimits applies DecodeLimits: MaxElements against declared
// geometry and MaxChunkBytes against every chunk frame or archive blob,
// enforced before any input-derived allocation. On the compress side
// MaxChunkBytes additionally caps the default chunk sizing, so a
// container written under limits L decodes under the same L.
func WithLimits(l *DecodeLimits) StreamOption {
	return func(c *StreamConfig) { c.Limits = l }
}

// WithContext threads a context through the pipeline: cancellation
// (like a sink write error) stops the stages after at most the chunks
// already in flight and returns the context's error with no goroutines
// left behind. This is the one way to pass cancellation through the
// options core.
func WithContext(ctx context.Context) StreamOption {
	return func(c *StreamConfig) { c.Ctx = ctx }
}

// WithChunkRows sets the number of dims[0]-rows per stream chunk; zero
// or negative keeps the default (~256Ki elements per chunk, capped by
// Limits.MaxChunkBytes and the memory budget when set). An explicit
// chunk-rows value always wins over WithMemoryBudget derivation.
func WithChunkRows(n int) StreamOption {
	return func(c *StreamConfig) { c.ChunkRows = n }
}

// WithParity makes stream containers self-healing: one XOR parity frame
// per k data chunks (the final group may be shorter), letting salvage
// and the seekable read path reconstruct any single lost chunk per
// group byte-identically at ~1/k size overhead. k = 0 keeps the
// parity-free format bit-identical to before.
func WithParity(k int) StreamOption {
	return func(c *StreamConfig) { c.ParityK = k }
}

// WithVerifyOnWrite decode-verifies every sealed chunk against its
// source rows — shape, NaN/Inf/zero preservation, and the point-wise
// relative bound where the algorithm guarantees it — before the
// container commits. A mismatch fails the write with a typed
// ErrVerifyFailed, turning silent encoder or memory corruption into a
// write-time error at the cost of one extra decode per chunk.
func WithVerifyOnWrite() StreamOption {
	return func(c *StreamConfig) { c.VerifyOnWrite = true }
}

// WithCompressorOptions passes through per-chunk compressor options
// (base, fixed rates, …) unchanged.
func WithCompressorOptions(o *Options) StreamOption {
	return func(c *StreamConfig) { c.Compressor = o }
}

// WithFloat32 selects raw little-endian float32 element I/O: readers
// widen each element to float64 (exact) on the way in and writers
// narrow on the way out, mirroring Compress32/Decompress32. The
// container bytes are identical to the widened float64 path.
func WithFloat32() StreamOption {
	return func(c *StreamConfig) { c.Float32 = true }
}

// WithMemoryBudget sets a target peak resident buffer memory, in bytes,
// for the pipeline's chunk buffers, and derives whichever of the
// chunk-rows and worker knobs the caller left unset:
//
//	budget ≥ chunkRows × rowStride × (8×(workers+2) + elemSize)
//
// — the freelist holds at most workers+2 float64 chunk buffers plus one
// raw elemSize-wide I/O buffer. Derivation prefers keeping the worker
// count (more cores beat bigger chunks) and shrinks chunk rows first;
// only when the budget cannot fit even one row per chunk at a given
// worker count does it shed workers. Explicitly set WithChunkRows /
// WithWorkers values always win; the budget then sizes only the
// remaining knob. Decode-side paths (DecompressStreamOpts, ReadRows,
// DecompressAny, DecompressStreamSalvage) take chunk geometry from the
// container header, so the budget there caps the worker count alone.
// The budget governs the pipeline's own chunk buffers — the
// O(workers × chunk) term — not the codec's transient working memory.
func WithMemoryBudget(bytes int64) StreamOption {
	return func(c *StreamConfig) { c.MemoryBudget = bytes }
}

// budgetMaxChunkElems caps budget-derived chunks well under the 2 GiB
// frame guard so geometry stays valid whatever the budget.
const budgetMaxChunkElems = 1 << 27

// budgetChunkRows returns the largest chunk-rows value whose pipeline
// footprint at w workers fits the budget, or 0 when even one row does
// not fit.
func budgetChunkRows(budget int64, rowStride, elemSize, w int) int {
	perRow := int64(rowStride) * int64(8*(w+2)+elemSize)
	cr := budget / perRow
	if cr < 1 {
		return 0
	}
	if cr > budgetMaxChunkElems/int64(rowStride) {
		cr = budgetMaxChunkElems / int64(rowStride)
		if cr < 1 {
			cr = 1
		}
	}
	return int(cr)
}

// budgetWorkersFor returns the largest worker count in [1, maxW] whose
// pipeline footprint at the given chunk geometry fits the budget.
func budgetWorkersFor(budget int64, chunkElems, elemSize, maxW int) int {
	per := int64(chunkElems) * 8
	fixed := int64(chunkElems)*int64(elemSize) + 2*per
	if per <= 0 {
		return maxW
	}
	w := (budget - fixed) / per
	if w < 1 {
		return 1
	}
	if w > int64(maxW) {
		return maxW
	}
	return int(w) // bounded by maxW above
}

// tuneCompressBudget resolves the chunk-rows and worker knobs of a
// compress pipeline against a memory budget, honoring explicit values.
// workers carries the caller's default (GOMAXPROCS) when unset.
func tuneCompressBudget(cfg *StreamConfig, rowStride, elemSize, workers int) (chunkRows, w int) {
	chunkRows, w = cfg.ChunkRows, workers
	if cfg.MemoryBudget <= 0 {
		return chunkRows, w
	}
	switch {
	case cfg.ChunkRows <= 0 && cfg.Workers <= 0:
		for cand := workers; cand >= 1; cand-- {
			if cr := budgetChunkRows(cfg.MemoryBudget, rowStride, elemSize, cand); cr >= 1 {
				return cr, cand
			}
		}
		return 1, 1 // budget below one row at one worker: best effort at minimum footprint
	case cfg.ChunkRows <= 0:
		cr := budgetChunkRows(cfg.MemoryBudget, rowStride, elemSize, w)
		if cr < 1 {
			cr = 1
		}
		return cr, w
	case cfg.Workers <= 0:
		return chunkRows, budgetWorkersFor(cfg.MemoryBudget, chunkRows*rowStride, elemSize, w)
	}
	return chunkRows, w // both explicit: the budget defers to them
}

// defaultWorkers resolves the configured worker count, falling back to
// GOMAXPROCS.
func (c *StreamConfig) defaultWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}
