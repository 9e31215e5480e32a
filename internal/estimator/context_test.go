package estimator

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cqabench/internal/mt"
)

// gatedSampler blocks every draw on a token from the test, so the test
// controls exactly how many draws happen before cancellation. The mean
// is tiny, so the stopping rule alone needs millions of draws and the
// run cannot finish on its own.
type gatedSampler struct {
	gate  chan struct{}
	draws atomic.Int64
}

func (g *gatedSampler) Sample(src *mt.Source) float64 {
	<-g.gate
	g.draws.Add(1)
	src.Float64() // consume the stream like a real sampler
	return 1e-6
}

// TestCancelWithinOneChunk pins the abort latency contract: after the
// context is canceled, the estimation loop performs at most one more
// batchSize chunk of draws before returning an error that wraps both
// ErrCanceled and context.Canceled.
func TestCancelWithinOneChunk(t *testing.T) {
	g := &gatedSampler{gate: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, err := MonteCarloContext(ctx, g, 0.1, 0.25, mt.New(mt.DefaultSeed), Budget{})
		done <- err
	}()

	// Let a known number of draws through, then cancel with the sampler
	// parked on the gate: no draws can race past the cancellation point.
	const before = 1000
	for i := 0; i < before; i++ {
		g.gate <- struct{}{}
	}
	cancel()

	// Keep feeding the gate so the in-flight chunk can finish; the loop
	// must stop on its own at the next chunk boundary.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case g.gate <- struct{}{}:
			case <-stop:
				return
			}
		}
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("estimation did not observe cancellation")
	}
	close(stop)

	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error %v does not wrap ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	total := g.draws.Load()
	if over := total - before; over > batchSize {
		t.Fatalf("observed cancellation after %d extra draws, want at most one chunk (%d)", over, batchSize)
	}
}

// TestDeadlineContextWrapsSentinels checks the deadline flavor of
// cancellation: an expired context deadline surfaces as ErrCanceled
// wrapping context.DeadlineExceeded, distinct from ErrBudget.
func TestDeadlineContextWrapsSentinels(t *testing.T) {
	g := &gatedSampler{gate: make(chan struct{})}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()

	stop := make(chan struct{})
	go func() {
		for {
			select {
			case g.gate <- struct{}{}:
			case <-stop:
				return
			}
		}
	}()
	defer close(stop)

	_, err := MonteCarloContext(ctx, g, 0.1, 0.25, mt.New(mt.DefaultSeed), Budget{})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v should wrap ErrCanceled and context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrBudget) {
		t.Fatalf("context deadline must not be reported as ErrBudget: %v", err)
	}
}

// TestContextIdenticalWhenUncanceled pins the determinism contract: a
// live but never-canceled context must not perturb the estimate, the
// sample count or the PRNG stream position.
func TestContextIdenticalWhenUncanceled(t *testing.T) {
	mk := func() Sampler { return constSampler(0.37) }
	srcA, srcB := mt.New(99), mt.New(99)
	plain, errA := MonteCarloContext(context.Background(), mk(), 0.2, 0.2, srcA, Budget{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, errB := MonteCarloContext(ctx, mk(), 0.2, 0.2, srcB, Budget{})
	if errA != nil || errB != nil {
		t.Fatalf("unexpected errors: %v / %v", errA, errB)
	}
	if plain != withCtx {
		t.Fatalf("context.Background %+v != live context %+v", plain, withCtx)
	}
	if srcA.Uint64() != srcB.Uint64() {
		t.Fatal("PRNG stream positions diverged")
	}
}

// constSampler draws a fixed value while consuming one stream word per
// draw, like the real kernels.
type constSampler float64

func (c constSampler) Sample(src *mt.Source) float64 {
	src.Float64()
	return float64(c)
}

// TestCoverageContextCancel checks the unbatched unit-charge path: the
// coverage walk polls the context every ctxStride draws.
func TestCoverageContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the walk must stop within one stride
	space := fakeSpace{m: 4}
	_, err := SelfAdjustingCoverageContext(ctx, space, 0.1, 0.25, mt.New(1), Budget{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("coverage did not report cancellation: %v", err)
	}
}

// fakeSpace is a minimal SymbolicSpace whose membership test always
// fails, forcing the walk to keep stepping until canceled or done.
type fakeSpace struct{ m int }

func (f fakeSpace) Draw(src *mt.Source) int { return src.Intn(f.m) }
func (f fakeSpace) InSet(j int) bool        { return j == 0 }
func (f fakeSpace) NumImages() int          { return f.m }
func (f fakeSpace) Weight() float64         { return 1 }
func (f fakeSpace) WalkOne(src *mt.Source, n int) {
	for ; n > 0; n-- {
		src.Intn(1)
		f.Draw(src)
	}
}
