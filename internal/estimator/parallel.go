package estimator

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cqabench/internal/mt"
)

// Deterministic intra-query parallel sampling.
//
// The sequential estimators consume one MT19937-64 stream; paralleling
// that stream directly would make results depend on goroutine timing.
// Instead, the parallel path splits the draw supply into batchSize-draw
// chunks and derives an independent substream per chunk via
// mt.Substream(seed, chunkIdx) (SeedBySlice over the two-word key — see
// internal/mt/substream.go). Chunk k's 256 values are a pure function
// of (seed, k), so any worker may compute any chunk in any order; the
// consumer folds chunks back strictly by index. The 𝒜𝒜 loop
// (monteCarloLoop, with its stoppingRuleLoop and fixedLoop phases) runs
// unchanged on top, so budget-exhaustion accounting, cancellation
// polling and convergence-recorder points are preserved chunk-for-chunk.
//
// Determinism contract (pinned by TestParallelWorkerInvariance,
// TestParallelMatchesManualSubstreamFold and the parallel golden fixture
// in internal/cqa):
//
//   - For a fixed seed, the parallel estimate is byte-identical across
//     runs AND across worker counts — workers only change wall-clock
//     time, never the draw schedule.
//   - The parallel draw schedule is a different (substream-keyed)
//     stream than the sequential one, so parallel estimates differ from
//     sequential estimates for the same seed. Sequential callers are
//     untouched: the pre-existing golden fixtures pin their stream.

// Parallel configures the parallel draw supply for one estimation run.
type Parallel struct {
	// Seed is the root seed; chunk k draws from mt.Substream(Seed, k).
	Seed uint64
	// Workers is the pool size (≥ 1). It affects wall-clock time only:
	// the result is identical for every worker count.
	Workers int
	// NewSampler builds one sampler per worker. Samplers are stateful
	// (scratch buffers), so each worker needs its own instance; the
	// factory must produce samplers that draw identically.
	NewSampler func() Sampler
}

func (p Parallel) validate() error {
	if p.Workers < 1 {
		return fmt.Errorf("estimator: parallel sampling requires at least 1 worker, got %d: %w", p.Workers, ErrInvalidOptions)
	}
	if p.NewSampler == nil {
		return fmt.Errorf("estimator: parallel sampling requires a sampler factory: %w", ErrInvalidOptions)
	}
	return nil
}

// MonteCarloParallel is MonteCarloContext drawing from seed-derived
// per-chunk substreams computed by a worker pool: the 𝒜𝒜 phases share
// one chunked stream, exactly as the sequential phases share one
// source.
func MonteCarloParallel(ctx context.Context, p Parallel, eps, delta float64, budget Budget) (Result, error) {
	if err := checkArgs(eps, delta); err != nil {
		return Result{}, err
	}
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	cs := newChunkScheduler(ctx, p)
	defer cs.stop()
	res, err := monteCarloLoop(ctx, cs, eps, delta, budget)
	res.Chunks = cs.chunks
	return res, err
}

// parChunk is one computed chunk in flight from a worker to the
// consumer.
type parChunk struct {
	idx  int64
	vals []float64
}

// chunkScheduler is the parallel drawStream: a pool of workers claims
// chunk indices from an atomic counter, computes each chunk from its
// own substream, and sends it to the consumer, which reassembles chunks
// strictly in index order. Speculation is bounded: a worker holds at
// most one computed chunk while the results channel (capacity =
// workers) is full, so at most ~2×workers chunks exist beyond the
// consumer's position and the wasted work on early termination is
// bounded by the same amount.
//
// fill is called from exactly one goroutine (the estimation loop);
// only claim, results and quit are shared with workers.
type chunkScheduler struct {
	ctx     context.Context // nil when never-canceled (trackerCtx)
	quit    chan struct{}
	results chan parChunk
	claim   atomic.Int64
	wg      sync.WaitGroup
	pool    sync.Pool

	// Consumer-side reassembly state.
	pending map[int64][]float64 // out-of-order chunks awaiting their turn
	next    int64               // next chunk index to hand to the loop
	cur     []float64           // chunk currently being consumed
	curOff  int
	curReal bool // cur came from the pool (recycle when done)
	out     []float64
	zeros   []float64 // served after cancellation; see advance
	chunks  int64     // chunks consumed, for Result.Chunks
}

func newChunkScheduler(ctx context.Context, p Parallel) *chunkScheduler {
	cs := &chunkScheduler{
		ctx:     trackerCtx(ctx),
		quit:    make(chan struct{}),
		results: make(chan parChunk, p.Workers),
		pending: make(map[int64][]float64),
		out:     make([]float64, batchSize),
	}
	cs.pool.New = func() any { return make([]float64, batchSize) }
	for w := 0; w < p.Workers; w++ {
		cs.wg.Add(1)
		go cs.worker(p)
	}
	return cs
}

func (cs *chunkScheduler) worker(p Parallel) {
	defer cs.wg.Done()
	s := p.NewSampler()
	bs, _ := s.(BatchSampler)
	src := new(mt.Source)
	for {
		select {
		case <-cs.quit:
			return
		default:
		}
		if cs.ctx != nil && cs.ctx.Err() != nil {
			return
		}
		k := cs.claim.Add(1) - 1
		src.Substream(p.Seed, uint64(k))
		vals := cs.pool.Get().([]float64)
		if bs != nil {
			bs.SampleBatch(src, vals)
		} else {
			for i := range vals {
				vals[i] = s.Sample(src)
			}
		}
		select {
		case cs.results <- parChunk{idx: k, vals: vals}:
		case <-cs.quit:
			return
		}
	}
}

// fill returns the next n draws (n ≤ batchSize) of the chunk-ordered
// stream, spanning chunk boundaries as needed.
func (cs *chunkScheduler) fill(n int) []float64 {
	dst := cs.out[:n]
	filled := 0
	for filled < n {
		if cs.curOff == len(cs.cur) {
			cs.advance()
		}
		c := copy(dst[filled:], cs.cur[cs.curOff:])
		filled += c
		cs.curOff += c
	}
	return dst
}

// advance installs chunk cs.next as the current chunk, receiving and
// parking out-of-order chunks until it arrives. After cancellation the
// pool may never produce the next in-order chunk, so advance serves a
// zero chunk instead: samples in [0,1] keep every estimation loop
// well-defined on zeros, and the loop's next reserve() call polls the
// context and aborts with the cancellation error. Draw values after the
// cancellation point are therefore never observable in a successful
// Result.
func (cs *chunkScheduler) advance() {
	if cs.curReal {
		cs.pool.Put(cs.cur[:batchSize])
		cs.curReal = false
	}
	for {
		if vals, ok := cs.pending[cs.next]; ok {
			delete(cs.pending, cs.next)
			cs.next++
			cs.cur, cs.curOff, cs.curReal = vals, 0, true
			cs.chunks++
			return
		}
		var done <-chan struct{}
		if cs.ctx != nil {
			done = cs.ctx.Done()
		}
		select {
		case c := <-cs.results:
			cs.pending[c.idx] = c.vals
		case <-done:
			if cs.zeros == nil {
				cs.zeros = make([]float64, batchSize)
			}
			cs.cur, cs.curOff = cs.zeros, 0
			return
		}
	}
}

// stop shuts the worker pool down and waits for it to exit. Safe to
// call exactly once, after the estimation loop has returned.
func (cs *chunkScheduler) stop() {
	close(cs.quit)
	cs.wg.Wait()
}
