// Package estimator implements the estimation layer the approximation
// schemes share (Section 4.2–4.3). Five calls make it up:
//
//   - MonteCarloContext: the optimal Monte Carlo estimator of Dagum,
//     Karp, Luby and Ross [8] (their 𝒜𝒜 algorithm), which the paper
//     calls MonteCarlo[Sample] with OptEstimate[Sample] choosing the
//     number of iterations; the two are fused here, exactly as in [8].
//     MonteCarloParallel runs the same loops over seed-derived
//     per-chunk substreams (see parallel.go).
//   - StoppingRuleContext: the stopping rule of [8] on its own, the
//     first phase of 𝒜𝒜; used by the ablation benchmarks.
//   - FixedSamplesContext: a non-adaptive baseline that sizes the
//     sample count from a worst-case lower bound on the mean via the
//     zero-one estimator theorem; used by the ablation benchmarks.
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
// Every call accepts a Budget so the harness can impose the paper's
// per-scenario timeouts, and a context it polls at chunk boundaries. A
// context that is never canceled (context.Background) skips the polls.
package estimator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"cqabench/internal/cqaerr"
	"cqabench/internal/mt"
	"cqabench/internal/obs"
)

// Sampler produces one random draw in [0, 1]. All samplers in
// internal/sampler implement it (and BatchSampler, the chunked fast
// path).
type Sampler interface {
	Sample(src *mt.Source) float64
}

// Budget bounds an estimation run. Zero values mean "unlimited".
type Budget struct {
	MaxSamples int64
	Deadline   time.Time
}

// ErrBudget is wrapped by errors returned when a budget is exhausted.
var ErrBudget = errors.New("estimator: budget exhausted")

// ErrCanceled is wrapped by errors returned when the caller's context is
// canceled or its deadline expires mid-estimation (alias of the shared
// sentinel, re-exported at the root package as cqabench.ErrCanceled).
var ErrCanceled = cqaerr.ErrCanceled

// ErrInvalidOptions is wrapped by errors rejecting malformed estimation
// parameters (ε or δ outside (0, 1), a FixedSamplesContext mean lower
// bound that is not positive) before any sampling work starts.
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
}

// budgetTracker meters samples against a budget, checking the wall clock
// only every deadlineStride draws. When ctx is non-nil, cancellation is
// polled at chunk boundaries (every reserve call) and, for unbatched
// unit-charge loops like the coverage walk, every ctxStride draws — so
// abort latency is about one batchSize chunk either way. The checks never
// touch the PRNG: for a run that is not canceled, every estimate, sample
// count and stream position is byte-identical to a run under
// context.Background, which polls nothing.
type budgetTracker struct {
	budget  Budget
	ctx     context.Context // nil: no cancellation checks
	samples int64
}

const deadlineStride = 8192

// ctxStride bounds the cancellation latency of loops that charge draws
// one at a time (the coverage walk): the context is polled once per
// ctxStride draws, matching the batched loops' one-chunk latency.
const ctxStride = batchSize

// checkCtx reports cancellation as an error wrapping both ErrCanceled
// and the context's own sentinel.
func (b *budgetTracker) checkCtx() error {
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			return fmt.Errorf("estimator: %w", cqaerr.Canceled(err))
		}
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
		if err := b.checkCtx(); err != nil {
			return err
		}
	}
	if !b.budget.Deadline.IsZero() && prev/deadlineStride != b.samples/deadlineStride {
		if time.Now().After(b.budget.Deadline) {
			return ErrBudget
		}
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
	// A reserve call is a chunk boundary: poll cancellation here so an
	// aborted run stops within one in-flight chunk.
	if err := b.checkCtx(); err != nil {
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

// StoppingRuleContext implements the Stopping Rule Algorithm of [8]: it
// draws samples until their running sum reaches Υ1 = 1 + (1+ε)Υ and
// returns Υ1/N, an (ε, δ)-approximation of the mean provided the mean is
// positive.
//
// Draws are consumed in chunks bounded by ⌊Υ1 − sum⌋: samples lie in
// [0, 1], so the running sum cannot cross Υ1 before that many further
// draws, and the crossing index always falls on a chunk's final draw.
// The chunked loop therefore draws exactly as many samples — in exactly
// the same stream order — as the one-at-a-time loop. The context is
// polled at every chunk boundary, so an abort is observed within one
// batchSize chunk of draws.
func StoppingRuleContext(ctx context.Context, s Sampler, eps, delta float64, src *mt.Source, budget Budget) (Result, error) {
	if err := checkArgs(eps, delta); err != nil {
		return Result{}, err
	}
	return stoppingRuleLoop(ctx, &seqStream{br: newBatcher(s), src: src}, eps, delta, budget)
}

// stoppingRuleLoop is the stopping-rule core, parameterized by the draw
// supply: StoppingRuleContext hands it a seqStream, and monteCarloLoop,
// as its first phase, the stream it was given (a chunkScheduler under
// MonteCarloParallel). Budget accounting, cancellation polling and
// convergence-recorder points are identical either way.
func stoppingRuleLoop(ctx context.Context, ds drawStream, eps, delta float64, budget Budget) (Result, error) {
	bt := &budgetTracker{budget: budget, ctx: trackerCtx(ctx)}
	rec := RecorderFrom(ctx)
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
			return Result{Samples: bt.samples}, err
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
	res := Result{Estimate: upsilon1 / float64(n), Samples: bt.samples}
	if rec != nil {
		rec.final(TrajectoryPoint{
			Samples: bt.samples, Estimate: res.Estimate, Progress: 1, Phase: "stopping",
		})
	}
	return res, nil
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
// sentinel).
func MonteCarloContext(ctx context.Context, s Sampler, eps, delta float64, src *mt.Source, budget Budget) (Result, error) {
	if err := checkArgs(eps, delta); err != nil {
		return Result{}, err
	}
	return monteCarloLoop(ctx, &seqStream{br: newBatcher(s), src: src}, eps, delta, budget)
}

// monteCarloLoop is the 𝒜𝒜 core, parameterized by the draw supply. All
// three phases consume the same stream, continuing where the previous
// phase stopped — exactly the shared-source behavior of the sequential
// algorithm.
func monteCarloLoop(ctx context.Context, ds drawStream, eps, delta float64, budget Budget) (Result, error) {
	bt := &budgetTracker{budget: budget, ctx: trackerCtx(ctx)}
	rec := RecorderFrom(ctx)

	// Step 1: rough estimate via the stopping rule at accuracy
	// min(1/2, √ε) and confidence δ/3.
	eps1 := math.Min(0.5, math.Sqrt(eps))
	r1, err := stoppingRuleLoop(ctx, ds, eps1, delta/3, budget)
	bt.samples = r1.Samples
	if err != nil {
		return Result{Samples: bt.samples}, err
	}
	muHat := r1.Estimate

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
	est, err := fixedLoop(ds, n3, bt, rec, "final")
	if err != nil {
		return Result{Samples: bt.samples}, err
	}
	res := Result{
		Estimate: est,
		Samples:  bt.samples,
		Phases:   [3]int64{phase1, phase2, bt.samples - phase1 - phase2},
	}
	recordMCMetrics(res)
	return res, nil
}

// recordMCMetrics publishes one completed 𝒜𝒜 run's per-phase sample
// counts (the Monte-Carlo iteration telemetry).
func recordMCMetrics(res Result) {
	r := obs.Default()
	r.Counter("estimator_mc_runs_total").Inc()
	r.Counter("estimator_mc_samples_total", obs.L("phase", "stopping")).Add(res.Phases[0])
	r.Counter("estimator_mc_samples_total", obs.L("phase", "variance")).Add(res.Phases[1])
	r.Counter("estimator_mc_samples_total", obs.L("phase", "final")).Add(res.Phases[2])
}

// FixedSamplesContext estimates E[Sample] with a sample count fixed up
// front from a lower bound on the mean: N = ⌈Υ/meanLB⌉, the generalized
// zero-one estimator theorem bound of [8] with the worst-case variance
// ρ ≤ μ. It is correct whenever E[Sample] ≥ meanLB but typically draws
// far more samples than MonteCarloContext; the ablation benchmarks
// quantify the gap. meanLB must be positive. The context is polled at
// chunk boundaries, as in MonteCarloContext.
func FixedSamplesContext(ctx context.Context, s Sampler, eps, delta, meanLB float64, src *mt.Source, budget Budget) (Result, error) {
	if err := checkArgs(eps, delta); err != nil {
		return Result{}, err
	}
	if !(meanLB > 0) {
		return Result{}, fmt.Errorf("estimator: require a positive mean lower bound, got %v: %w", meanLB, ErrInvalidOptions)
	}
	bt := &budgetTracker{budget: budget, ctx: trackerCtx(ctx)}
	n := int64(math.Ceil(upsilon(eps, delta) / meanLB))
	est, err := fixedLoop(&seqStream{br: newBatcher(s), src: src}, n, bt, RecorderFrom(ctx), "fixed")
	if err != nil {
		return Result{Samples: bt.samples}, err
	}
	return Result{Estimate: est, Samples: bt.samples}, nil
}

// fixedLoop draws max(n, 1) samples from ds in chunks and returns their
// mean. It is the 𝒜𝒜 final phase and the whole of FixedSamplesContext;
// phase names the recorder's checkpoints.
func fixedLoop(ds drawStream, n int64, bt *budgetTracker, rec *Recorder, phase string) (float64, error) {
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
				Progress: float64(done) / float64(n), Phase: phase,
			})
		}
	}
	est := sum / float64(n)
	if rec != nil {
		rec.final(TrajectoryPoint{
			Samples: bt.samples, Estimate: est, Progress: 1, Phase: phase,
		})
	}
	return est, nil
}
