package estimator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"cqabench/internal/mt"
	"cqabench/internal/synopsis"
)

func identicalResult(t *testing.T, tag string, a, b Result, aErr, bErr error) {
	t.Helper()
	if (aErr == nil) != (bErr == nil) {
		t.Fatalf("%s: errors differ: %v vs %v", tag, aErr, bErr)
	}
	if aErr != nil && !errors.Is(bErr, ErrBudget) {
		t.Fatalf("%s: error %v does not wrap ErrBudget", tag, bErr)
	}
	if math.Float64bits(a.Estimate) != math.Float64bits(b.Estimate) {
		t.Fatalf("%s: estimates differ: %x vs %x (%v vs %v)", tag,
			math.Float64bits(a.Estimate), math.Float64bits(b.Estimate), a.Estimate, b.Estimate)
	}
	if a.Samples != b.Samples {
		t.Fatalf("%s: sample counts differ: %d vs %d", tag, a.Samples, b.Samples)
	}
	if a.Phases != b.Phases {
		t.Fatalf("%s: phase breakdowns differ: %v vs %v", tag, a.Phases, b.Phases)
	}
	if a.Chunks != b.Chunks {
		t.Fatalf("%s: chunk counts differ: %d vs %d", tag, a.Chunks, b.Chunks)
	}
}

// TestParallelWorkerInvariance is the parallel path's core determinism
// property: for every kernel, shape, seed and budget (including
// budget-exhaustion error paths), MonteCarloParallel returns
// byte-identical Results — estimate, sample count, phase breakdown,
// chunk count — regardless of worker count. Its phases run the
// stopping-rule loop and the fixed-count loop over the same scheduler.
// Run under -race in CI, this also exercises the scheduler's
// synchronization.
func TestParallelWorkerInvariance(t *testing.T) {
	pairs := map[string]*synopsis.Admissible{
		"small":     refPair(),
		"one-block": refOneBlock(),
		"one-image": refOneImage(),
	}
	seeds := []uint64{1, mt.DefaultSeed}
	budgets := []int64{0, 1, 37, 5000}
	workerCounts := []int{2, 4, 7}
	ctx := context.Background()
	for pname, pair := range pairs {
		for sname, mk := range refSamplers(pair) {
			for _, seed := range seeds {
				for _, max := range budgets {
					budget := Budget{MaxSamples: max}
					tag := pname + "/" + sname

					base := Parallel{Seed: seed, Workers: 1, NewSampler: mk}
					mc1, mc1Err := MonteCarloParallel(ctx, base, 0.25, 0.3, budget)

					// Re-running with the same configuration must be
					// byte-identical (bit-reproducibility).
					mc1b, mc1bErr := MonteCarloParallel(ctx, base, 0.25, 0.3, budget)
					identicalResult(t, tag+"/MonteCarlo/rerun", mc1, mc1b, mc1Err, mc1bErr)

					for _, w := range workerCounts {
						p := Parallel{Seed: seed, Workers: w, NewSampler: mk}
						mc, mcErr := MonteCarloParallel(ctx, p, 0.25, 0.3, budget)
						identicalResult(t, tag+"/MonteCarlo", mc1, mc, mc1Err, mcErr)
					}
				}
			}
		}
	}
}

// substreamSampler draws as the parallel path schedules draws: draw i
// of a run comes from mt.Substream(seed, i/batchSize), so the source is
// reseeded at every batchSize-th draw.
type substreamSampler struct {
	s    Sampler
	seed uint64
	i    int64
}

func (q *substreamSampler) Sample(src *mt.Source) float64 {
	if q.i%batchSize == 0 {
		src.Substream(q.seed, uint64(q.i/batchSize))
	}
	q.i++
	return q.s.Sample(src)
}

// TestParallelMatchesManualSubstreamFold pins the parallel draw
// schedule itself: MonteCarloParallel must return, bit for bit, what the
// one-at-a-time reference seqMonteCarlo returns when it draws from
// substreams 0, 1, 2, ... in chunk order. This covers all three 𝒜𝒜
// phases, budget failures in each, and the chunk count.
func TestParallelMatchesManualSubstreamFold(t *testing.T) {
	pairs := map[string]*synopsis.Admissible{
		"small":     refPair(),
		"one-image": refOneImage(),
	}
	for pname, pair := range pairs {
		for sname, mk := range refSamplers(pair) {
			for _, seed := range []uint64{9001, mt.DefaultSeed} {
				for _, max := range []int64{0, 37, 500, 5000} {
					tag := fmt.Sprintf("%s/%s/seed %d/MaxSamples %d", pname, sname, seed, max)
					budget := Budget{MaxSamples: max}
					want, wantErr := seqMonteCarlo(&substreamSampler{s: mk(), seed: seed}, 0.25, 0.3, new(mt.Source), budget)
					got, gotErr := MonteCarloParallel(context.Background(),
						Parallel{Seed: seed, Workers: 3, NewSampler: mk}, 0.25, 0.3, budget)
					sameResult(t, tag, want, got, wantErr, gotErr)
					if gotErr != nil {
						continue
					}
					if wantChunks := (got.Samples + batchSize - 1) / batchSize; got.Chunks != wantChunks {
						t.Fatalf("%s: %d chunks for %d samples, want %d", tag, got.Chunks, got.Samples, wantChunks)
					}
				}
			}
		}
	}
}

// TestParallelValidate covers the rejection paths of the parallel
// configuration.
func TestParallelValidate(t *testing.T) {
	pair := refPair()
	mk := refSamplers(pair)["KL"]
	ctx := context.Background()
	cases := []struct {
		name string
		p    Parallel
	}{
		{"zero-workers", Parallel{Seed: 1, Workers: 0, NewSampler: mk}},
		{"negative-workers", Parallel{Seed: 1, Workers: -3, NewSampler: mk}},
		{"nil-factory", Parallel{Seed: 1, Workers: 2}},
	}
	for _, c := range cases {
		if _, err := MonteCarloParallel(ctx, c.p, 0.25, 0.3, Budget{}); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: MonteCarloParallel error %v, want ErrInvalidOptions", c.name, err)
		}
	}
}

// TestParallelCancellation checks that the scheduler unwinds cleanly
// when the caller's context dies: pre-canceled contexts abort before
// drawing, and mid-run cancellation surfaces as ErrCanceled without
// deadlocking the pool (the zero-chunk fallback in advance).
func TestParallelCancellation(t *testing.T) {
	pair := refPair()
	mk := refSamplers(pair)["KLM"]

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MonteCarloParallel(canceled, Parallel{Seed: 5, Workers: 4, NewSampler: mk}, 0.25, 0.3, Budget{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled: error %v, want ErrCanceled", err)
	}
	if res.Samples != 0 {
		t.Fatalf("pre-canceled: %d samples drawn, want 0", res.Samples)
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancelMid()
	}()
	// A very tight eps makes the run long enough that cancellation lands
	// mid-flight on any hardware; if the run finishes first the estimate
	// is simply valid and the test passes vacuously.
	_, err = MonteCarloParallel(ctx, Parallel{Seed: 5, Workers: 4, NewSampler: mk}, 0.005, 0.01, Budget{})
	if err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-run cancel: error %v, want ErrCanceled (or nil if finished)", err)
	}
	cancelMid()
}
