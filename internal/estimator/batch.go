package estimator

import "cqabench/internal/mt"

// BatchSampler is a Sampler that can fill a whole slice of draws in one
// call. All kernels in internal/sampler implement it. The contract is
// strict: SampleBatch(src, dst) must consume the PRNG stream and produce
// values exactly as len(dst) consecutive Sample(src) calls would, so the
// estimators can mix batch and single draws freely without changing any
// estimate.
type BatchSampler interface {
	Sampler
	SampleBatch(src *mt.Source, dst []float64)
}

// batchSize is the estimator-side chunk: large enough to amortize
// interface dispatch and keep the sampler's inner loop hot, small enough
// that a chunk of float64s stays in L1. It is also the substream chunk
// of the parallel sampling path (see parallel.go): draw k of a parallel
// run comes from substream k/batchSize at offset k%batchSize.
const batchSize = 256

// drawStream is the estimation loops' view of the draw supply: fill
// returns the next n consecutive draw values (n ≤ batchSize) in a
// scratch slice valid until the next fill. The sequential
// implementation (seqStream) pulls them from one PRNG stream through a
// batcher; the parallel one (chunkScheduler) reassembles them, in
// order, from seed-derived per-chunk substreams computed by a worker
// pool. The loops themselves are agnostic: budget accounting,
// cancellation polling and convergence recording happen at the same
// points either way.
type drawStream interface {
	fill(n int) []float64
}

// seqStream adapts the classic (sampler, source) pair to drawStream:
// the draw supply is the single sequential MT19937-64 stream, exactly
// as before the parallel path existed.
type seqStream struct {
	br  *batcher
	src *mt.Source
}

func (q *seqStream) fill(n int) []float64 { return q.br.fill(q.src, n) }

// batcher adapts any Sampler to chunked consumption: batch-capable
// samplers fill the scratch buffer in one call, the rest fall back to a
// Sample loop with identical stream consumption. The buffer is reused
// across fills — estimation loops allocate once per run, not per chunk.
type batcher struct {
	s   Sampler
	bs  BatchSampler // nil when s is not batch-capable
	buf []float64
}

func newBatcher(s Sampler) *batcher {
	b := &batcher{s: s, buf: make([]float64, batchSize)}
	if bs, ok := s.(BatchSampler); ok {
		b.bs = bs
	}
	return b
}

// fill returns n consecutive draws (n ≤ batchSize) in a scratch slice
// valid until the next fill.
func (b *batcher) fill(src *mt.Source, n int) []float64 {
	dst := b.buf[:n]
	if b.bs != nil {
		b.bs.SampleBatch(src, dst)
		return dst
	}
	for i := range dst {
		dst[i] = b.s.Sample(src)
	}
	return dst
}
