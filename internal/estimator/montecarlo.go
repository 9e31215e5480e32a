// Package estimator implements the estimation layer the approximation
// schemes share (Section 4.2–4.3). Three calls make it up:
//
//   - MonteCarloContext: the optimal Monte Carlo estimator of Dagum,
//     Karp, Luby and Ross [8] (their 𝒜𝒜 algorithm), which the paper
//     calls MonteCarlo[Sample] with OptEstimate[Sample] choosing the
//     number of iterations; the two are fused here, exactly as in [8].
//   - MonteCarloParallel: the same loops over seed-derived per-chunk
//     substreams (see parallel.go).
//   - SelfAdjustingCoverageContext: Algorithm 6, the Karp–Luby–Madras
//     self-adjusting coverage algorithm [15] over the symbolic space.
//
// Every call rejects an ε or δ outside (0, 1), NaN included, with an
// error wrapping ErrInvalidOptions before it draws.
//
// The sampling loops consume draws in fixed-size chunks through the
// BatchSampler fast path when the sampler supports it, with semantics
// byte-identical to one-at-a-time draws: chunk sizes are bounded so no
// loop ever draws past its sequential stopping point, so for a fixed
// seed every estimate and sample count matches the unbatched reference
// exactly (see the kernel-equivalence tests).
//
// Every call takes a context, the run's only deadline: a canceled
// context, or one whose deadline has passed, stops the run within one
// chunk of draws (the harness's per-cell timeouts, the paper's
// per-scenario cap, are context deadlines). A Budget caps the draws. A
// context that can never be canceled (context.Background) skips the
// polls. The calls write no metrics: their Result reports the work, and
// the caller publishes it.
package estimator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"cqabench/internal/cqaerr"
	"cqabench/internal/mt"
)

// Sampler produces one random draw in [0, 1]. All samplers in
// internal/sampler implement it (and BatchSampler, the chunked fast
// path).
type Sampler interface {
	Sample(src *mt.Source) float64
}

// Budget caps an estimation run's draws. Zero means "unlimited". A run's
// time bound is its context's deadline.
type Budget struct {
	MaxSamples int64
}

// ErrBudget is wrapped by errors returned when a run's draws exceed
// Budget.MaxSamples.
var ErrBudget = errors.New("estimator: budget exhausted")

// ErrCanceled is wrapped by errors returned when the caller's context is
// canceled or its deadline expires mid-estimation (alias of the shared
// sentinel, re-exported at the root package as cqabench.ErrCanceled).
var ErrCanceled = cqaerr.ErrCanceled

// ErrInvalidOptions is wrapped by errors rejecting malformed estimation
// parameters (ε or δ outside (0, 1)) before any sampling work starts.
var ErrInvalidOptions = cqaerr.ErrInvalidOptions

// Result reports an estimate together with the work performed.
type Result struct {
	Estimate float64
	Samples  int64 // total draws performed
	// Phases breaks Samples down for the 𝒜𝒜 algorithm: stopping rule,
	// variance estimation, final run. Zero for other estimators.
	Phases [3]int64
	// Chunks counts the substream chunks consumed by the parallel
	// sampling path (see parallel.go). Zero for sequential runs.
	Chunks int64
	// Trials counts the coverage walk's trials, the count its estimate
	// divides by. Zero for other estimators.
	Trials int64
}

// budgetTracker meters one estimation call's draws against its budget
// and its context. A context that can be canceled is polled at chunk
// boundaries (every reserve call) and, for loops that charge draws one
// at a time like the coverage walk, every ctxStride draws, so a
// cancellation or a deadline stops a run within about one batchSize
// chunk. The checks never touch the PRNG: for a run that is not stopped,
// every estimate, sample count and stream position is byte-identical to
// a run under context.Background, which polls nothing.
type budgetTracker struct {
	budget   Budget
	ctx      context.Context // nil: never canceled, no polls
	deadline time.Time       // ctx's deadline; zero: none
	samples  int64
}

// newTracker builds the one tracker of an estimation call, by value so
// that it stays on the call's stack. A context whose Done is nil
// (Background, TODO, and values on them) can never be canceled, so its
// run polls nothing.
func newTracker(ctx context.Context, budget Budget) budgetTracker {
	bt := budgetTracker{budget: budget}
	if ctx != nil && ctx.Done() != nil {
		bt.ctx = ctx
		bt.deadline, _ = ctx.Deadline()
	}
	return bt
}

// ctxStride is how many draws pass between two polls in loops that
// charge draws one at a time (the coverage walk): the batched loops'
// one-chunk latency.
const ctxStride = batchSize

// poll reports a dead context as an error wrapping both ErrCanceled and
// the context's own sentinel. It reads the clock against the deadline
// too: the context's timer fires asynchronously, so its Err can still
// be nil for a while after the deadline has passed.
func (b *budgetTracker) poll() error {
	if b.ctx == nil {
		return nil
	}
	err := b.ctx.Err()
	if err == nil && !b.deadline.IsZero() && time.Now().After(b.deadline) {
		err = context.DeadlineExceeded
	}
	if err != nil {
		return fmt.Errorf("estimator: %w", cqaerr.Canceled(err))
	}
	return nil
}

func (b *budgetTracker) charge(n int64) error {
	prev := b.samples
	b.samples += n
	if b.budget.MaxSamples > 0 && b.samples > b.budget.MaxSamples {
		return ErrBudget
	}
	if b.ctx != nil && prev/ctxStride != b.samples/ctxStride {
		return b.poll()
	}
	return nil
}

// reserve grants up to want further loop iterations of a sampling loop
// whose one-at-a-time form charges unit draws per iteration, and charges
// the granted draws. When not even one whole iteration fits under
// MaxSamples, it issues the single charge the sequential loop's next
// iteration would have issued, so the failure's sample accounting
// (overshooting MaxSamples by exactly one iteration) stays byte-identical
// to the unbatched reference. want must be ≥ 1.
func (b *budgetTracker) reserve(want, unit int64) (int64, error) {
	// A reserve call is a chunk boundary: poll here so an aborted run
	// stops within one in-flight chunk.
	if err := b.poll(); err != nil {
		return 0, err
	}
	if max := b.budget.MaxSamples; max > 0 {
		if room := (max - b.samples) / unit; room < want {
			want = room
		}
	}
	if want < 1 {
		if err := b.charge(unit); err != nil {
			return 0, err
		}
		// Unreachable: want < 1 implies MaxSamples - samples < unit, so
		// the charge above necessarily exceeds MaxSamples.
		return 0, ErrBudget
	}
	if err := b.charge(want * unit); err != nil {
		return 0, err
	}
	return want, nil
}

const e2 = math.E - 2 // the (e-2) constant of [8]

// upsilon returns Υ = 4(e−2)·ln(2/δ)/ε², the core sample-complexity
// constant of [8].
func upsilon(eps, delta float64) float64 {
	return 4 * e2 * math.Log(2/delta) / (eps * eps)
}

// checkArgs is the argument check every estimation call runs before it
// draws: ε and δ strictly inside (0, 1). The comparisons are written so
// that NaN fails them.
func checkArgs(eps, delta float64) error {
	if !(eps > 0 && eps < 1 && delta > 0 && delta < 1) {
		return fmt.Errorf("estimator: require 0 < eps < 1 and 0 < delta < 1, got eps=%v delta=%v: %w", eps, delta, ErrInvalidOptions)
	}
	return nil
}

// stoppingRuleLoop implements the Stopping Rule Algorithm of [8], the
// first phase of monteCarloLoop: it draws samples until their running
// sum reaches Υ1 = 1 + (1+ε)Υ and returns Υ1/N, an (ε, δ)-approximation
// of the mean provided the mean is positive. It draws from the stream
// monteCarloLoop was given (a chunkScheduler under MonteCarloParallel)
// and charges the call's tracker, so budget accounting, cancellation
// polling and convergence-recorder points are identical either way; it
// records its checkpoints as "stopping".
//
// Draws are consumed in chunks bounded by ⌊Υ1 − sum⌋: samples lie in
// [0, 1], so the running sum cannot cross Υ1 before that many further
// draws, and the crossing index always falls on a chunk's final draw.
// The chunked loop therefore draws exactly as many samples — in exactly
// the same stream order — as the one-at-a-time loop. The context is
// polled at every chunk boundary, so an abort is observed within one
// batchSize chunk of draws.
func stoppingRuleLoop(ds drawStream, eps, delta float64, bt *budgetTracker, rec *Recorder) (float64, error) {
	upsilon1 := 1 + (1+eps)*upsilon(eps, delta)
	sum := 0.0
	var n int64
	for sum < upsilon1 {
		chunk := int64(batchSize)
		if need := upsilon1 - sum; need < batchSize {
			chunk = int64(need)
			if chunk < 1 {
				chunk = 1
			}
		}
		granted, err := bt.reserve(chunk, 1)
		if err != nil {
			return 0, err
		}
		for _, v := range ds.fill(int(granted)) {
			sum += v
			n++
			if sum >= upsilon1 {
				break // the crossing index: always the chunk's last draw
			}
		}
		if rec != nil {
			prog := sum / upsilon1
			if prog > 1 {
				prog = 1
			}
			rec.observe(TrajectoryPoint{
				Samples: bt.samples, Estimate: sum / float64(n),
				Progress: prog, Phase: "stopping",
			})
		}
	}
	est := upsilon1 / float64(n)
	if rec != nil {
		rec.final(TrajectoryPoint{
			Samples: bt.samples, Estimate: est, Progress: 1, Phase: "stopping",
		})
	}
	return est, nil
}

// MonteCarloContext implements the 𝒜𝒜 algorithm of [8]: an optimal
// (ε, δ)-approximation of E[Sample] for samplers with range [0, 1] and
// positive mean. It is the paper's MonteCarlo[Sample] with the optimal
// estimator OptEstimate[Sample] computing the number of iterations: the
// expected sample count is within a constant factor of any correct
// estimator's (proportional to the ratio of the sampler's variance-like
// parameter to its squared mean). The context is polled at every chunk
// boundary, so an abort is observed within one batchSize chunk of draws
// and reported as an error wrapping ErrCanceled (and the context's own
// sentinel). src may be nil when s reads no value from it: a one-image
// pair's KL or KLM sampler, whose draws are all 1.
func MonteCarloContext(ctx context.Context, s Sampler, eps, delta float64, src *mt.Source, budget Budget) (Result, error) {
	if err := checkArgs(eps, delta); err != nil {
		return Result{}, err
	}
	return monteCarloLoop(ctx, &seqStream{br: newBatcher(s), src: src}, eps, delta, budget)
}

// monteCarloLoop is the 𝒜𝒜 core, parameterized by the draw supply. All
// three phases consume the same stream, continuing where the previous
// phase stopped — exactly the shared-source behavior of the sequential
// algorithm — and charge one tracker and record into one recorder.
func monteCarloLoop(ctx context.Context, ds drawStream, eps, delta float64, budget Budget) (Result, error) {
	bt := newTracker(ctx, budget)
	rec := RecorderFrom(ctx)

	// Step 1: rough estimate via the stopping rule at accuracy
	// min(1/2, √ε) and confidence δ/3.
	muHat, err := stoppingRuleLoop(ds, math.Min(0.5, math.Sqrt(eps)), delta/3, &bt, rec)
	if err != nil {
		return Result{Samples: bt.samples}, err
	}
	phase1 := bt.samples

	// Step 2: estimate the variance parameter ρ = max(Var, ε·μ). The
	// fixed iteration count batches freely: chunks of sample pairs.
	ups := upsilon(eps, delta/3)
	ups2 := 2 * (1 + math.Sqrt(eps)) * (1 + 2*math.Sqrt(eps)) *
		(1 + math.Log(1.5)/math.Log(2/(delta/3))) * ups
	n2 := int64(math.Ceil(ups2 * eps / muHat))
	if n2 < 1 {
		n2 = 1
	}
	var sq float64
	for done := int64(0); done < n2; {
		want := n2 - done
		if want > batchSize/2 {
			want = batchSize / 2
		}
		pairs, err := bt.reserve(want, 2)
		if err != nil {
			return Result{Samples: bt.samples}, err
		}
		buf := ds.fill(int(2 * pairs))
		for t := 0; t < len(buf); t += 2 {
			d := buf[t] - buf[t+1]
			sq += d * d / 2
		}
		done += pairs
		if rec != nil {
			rec.observe(TrajectoryPoint{
				Samples: bt.samples, Estimate: sq / float64(done),
				Progress: float64(done) / float64(n2), Phase: "variance",
			})
		}
	}
	rhoHat := math.Max(sq/float64(n2), eps*muHat)
	phase2 := bt.samples - phase1

	// Step 3: final run sized by ρ̂/μ̂².
	n3 := int64(math.Ceil(ups2 * rhoHat / (muHat * muHat)))
	est, err := fixedLoop(ds, n3, &bt, rec)
	if err != nil {
		return Result{Samples: bt.samples}, err
	}
	return Result{
		Estimate: est,
		Samples:  bt.samples,
		Phases:   [3]int64{phase1, phase2, bt.samples - phase1 - phase2},
	}, nil
}

// fixedLoop draws max(n, 1) samples from ds in chunks and returns their
// mean. It is the 𝒜𝒜 final phase, and it records its checkpoints as
// "final".
func fixedLoop(ds drawStream, n int64, bt *budgetTracker, rec *Recorder) (float64, error) {
	n = max(n, 1)
	var sum float64
	for done := int64(0); done < n; {
		granted, err := bt.reserve(min(n-done, batchSize), 1)
		if err != nil {
			return 0, err
		}
		for _, v := range ds.fill(int(granted)) {
			sum += v
		}
		done += granted
		if rec != nil {
			rec.observe(TrajectoryPoint{
				Samples: bt.samples, Estimate: sum / float64(done),
				Progress: float64(done) / float64(n), Phase: "final",
			})
		}
	}
	est := sum / float64(n)
	if rec != nil {
		rec.final(TrajectoryPoint{
			Samples: bt.samples, Estimate: est, Progress: 1, Phase: "final",
		})
	}
	return est, nil
}
