package repro

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// The chunk engine. The paper's transform is point-wise, so every chunk
// of a field is an independent Compress stream, and every chunked read
// and write in this package is the same pipeline with a different
// fetch, work and emit step:
//
//	path                     fetch                          work          emit
//	compressStream           little-endian rows of r        Compress      WriteChunk
//	decodeStream (0xC8)      streamfmt.Reader.Next, index   decodeChunk   w, or collect
//	StreamHandle.readRows    extents, then parity repairs   decodeChunk   trim into dst
//	decompressParallel       0xC6 length-table slices       decodeChunk   collect
//	DecompressStreamSalvage  ScanSalvage's frames           decodeChunk   w, NaN fill if lost
//
// Salvage's work step treats a failed decode as a lost chunk rather
// than an error. One fetch goroutine fills jobs in field order, the
// workers run the work step, and the caller's goroutine emits each job
// in fetch order, so output order never depends on scheduling. At most
// workers+2 jobs ever exist, each reused with its buffers and its done
// channel: that hard cap is the O(workers × chunk) memory bound of
// DESIGN.md §7.

// chunkJob is one chunk's slot in the engine.
type chunkJob struct {
	seq     int           // field-order chunk index, set by fetch
	rows    int           // dims[0]-rows in the chunk, set by fetch
	payload []byte        // compressed chunk: fetched on decode, made by work on compress
	buf     []byte        // recycled fetch buffer that payload may alias
	vals    []float64     // chunk values: fetched (and recycled) on compress, decoded by work
	err     error         // the work step's result
	done    chan struct{} // work → emit handoff; capacity 1, so it is reused
}

// decodeWork is the work step of every chunked read.
func decodeWork(dims []int) func(*chunkJob) error {
	return func(jb *chunkJob) (err error) {
		jb.vals, err = decodeChunk(jb.payload, jb.rows, dims)
		return err
	}
}

// runChunks runs fetch → work → emit over a field's chunks until fetch
// returns io.EOF, and accumulates the pipeline counters into st:
// Chunks emitted, ReadWall (fetch), CodecWall (work, summed over
// workers), WriteWall (emit), BuffersAllocated (jobs whose buf or vals
// grew during a fetch) and the MaxInFlight high-water mark.
//
// Errors: a work or emit error stops the pipeline, wrapped as
// "chunk %d: %w"; a fetch error ends fetching, and the chunks already
// fetched are still emitted, so the error of the earliest chunk in
// field order wins. Cancellation of ctx is seen by both fetch and emit.
// Once stopped, fetch pulls nothing more, the workers skip their work
// and the caller drains every job, so no goroutine outlives the call. A
// panic in fetch, which parses untrusted input on its own goroutine,
// surfaces as ErrCorrupted.
func runChunks(ctx context.Context, workers int, st *StreamStats, fetch, work, emit func(*chunkJob) error) error {
	maxJobs := workers + 2
	todo := make(chan *chunkJob)           // unbuffered: a job leaves fetch only when a worker takes it
	order := make(chan *chunkJob, maxJobs) // sized to every job, so fetch never blocks on it
	free := make(chan *chunkJob, maxJobs)  // sized to every job, so emit never blocks on it
	stop := make(chan struct{})
	var fl inflight
	var codecNS atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers + 1)

	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for jb := range todo {
				jb.err = nil
				select {
				case <-stop:
				default:
					t0 := time.Now()
					jb.err = work(jb)
					codecNS.Add(int64(time.Since(t0)))
				}
				jb.done <- struct{}{}
			}
		}()
	}

	var fetchErr error
	var readWall time.Duration
	allocated := 0
	go func() {
		defer wg.Done()
		defer close(order)
		defer close(todo)
		defer recoverDecode(&fetchErr)
		made := 0
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				fetchErr = ctxCause(ctx)
				return
			default:
			}
			var jb *chunkJob
			if made < maxJobs && len(free) == 0 {
				made++
				jb = &chunkJob{done: make(chan struct{}, 1)}
			} else {
				select {
				case jb = <-free:
				case <-stop:
					return
				}
			}
			bufCap, valsCap := cap(jb.buf), cap(jb.vals)
			t0 := time.Now()
			err := fetch(jb)
			readWall += time.Since(t0)
			if cap(jb.buf) > bufCap || cap(jb.vals) > valsCap {
				allocated++
			}
			if err != nil {
				if err != io.EOF {
					fetchErr = err
				}
				return
			}
			fl.enter()
			select {
			case todo <- jb:
			case <-stop:
				return
			}
			// Sent to a worker before it is queued, so every job the
			// caller waits on has a worker to finish it.
			order <- jb
		}
	}()

	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			close(stop)
		}
	}
	cancelled := ctx.Done()
	for {
		var jb *chunkJob
		select {
		case jb = <-order:
		case <-cancelled:
			fail(ctxCause(ctx))
			cancelled = nil
			continue
		}
		if jb == nil {
			break
		}
		<-jb.done
		if firstErr == nil {
			err := jb.err
			if err == nil {
				t0 := time.Now()
				err = emit(jb)
				st.WriteWall += time.Since(t0)
			}
			if err != nil {
				fail(fmt.Errorf("chunk %d: %w", jb.seq, err))
			} else {
				st.Chunks++
			}
		}
		fl.leave()
		free <- jb
	}
	wg.Wait()

	st.ReadWall += readWall
	st.CodecWall += time.Duration(codecNS.Load())
	st.BuffersAllocated += allocated
	if m := int(fl.max.Load()); m > st.MaxInFlight {
		st.MaxInFlight = m
	}
	if firstErr == nil {
		firstErr = fetchErr
	}
	return firstErr
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

// collector is the emit step of DecompressAny's chunked decodes. It
// keeps each decoded chunk and allocates the field once, after the last
// chunk has decoded, so the result is sized by decoded data and never
// by a header's claim.
type collector struct {
	chunks [][]float64
	n      int
}

func (c *collector) emit(jb *chunkJob) error {
	c.chunks = append(c.chunks, jb.vals)
	c.n += len(jb.vals)
	return nil
}

// field concatenates the collected chunks.
func (c *collector) field() []float64 {
	out := make([]float64, 0, c.n)
	for _, ch := range c.chunks {
		out = append(out, ch...)
	}
	return out
}

// decodeWorkers is the one worker-count rule of the decode paths
// (DecompressStreamOpts, ReadRows, DecompressAny and
// DecompressStreamSalvage): WithWorkers or
// GOMAXPROCS, tempered by WithMemoryBudget (the chunk geometry is the
// container's, so the budget can only shed workers), clamped to the
// chunks to decode.
func (c *StreamConfig) decodeWorkers(chunkElems, elemSize, chunks int) int {
	w := c.defaultWorkers()
	if c.Workers <= 0 && c.MemoryBudget > 0 {
		w = budgetWorkersFor(c.MemoryBudget, chunkElems, elemSize, w)
	}
	return max(1, min(w, chunks))
}
