package estimator

import (
	"context"
	"math"

	"cqabench/internal/mt"
	"cqabench/internal/obs"
)

// SymbolicSpace is the view of the symbolic sampling space S• that the
// self-adjusting coverage algorithm needs: sampling a pair (i, I)
// uniformly, testing membership of the current I in I^j, the number of
// images, and the normalization weight |S•|/|db(B)|.
// sampler.Symbolic (and hence sampler.KL / sampler.KLM) implements it.
type SymbolicSpace interface {
	Draw(src *mt.Source) int
	InSet(j int) bool
	NumImages() int
	Weight() float64
	// WalkOne consumes src as n steps of the walk over a one-image
	// space: each step's Intn(1), then the Draw that follows it.
	WalkOne(src *mt.Source, n int)
}

// SelfAdjustingCoverageContext implements Algorithm 6 (the
// self-adjusting coverage algorithm of Karp, Luby and Madras [15]
// adapted to admissible pairs). It estimates the UnionOfSets quantity
// |∪_i I^i| and returns it normalized by |db(B)| — that is, it returns
// an (ε, δ)-estimate of R(H, B) directly. The normalization is folded in
// because |∪_i I^i| can exceed float64 range for large B while the ratio
// never can; Algorithm 5 multiplies by 1/|db(B)| anyway.
//
// The number of inner steps is CoverageIterations' deterministic N:
// pessimistic but predictable, which is exactly the trade-off Section
// 4.3 discusses. The walk charges one draw per step, and the context is
// polled every ctxStride steps (the same latency as the batched loops'
// chunk boundaries).
func SelfAdjustingCoverageContext(ctx context.Context, space SymbolicSpace, eps, delta float64, src *mt.Source, budget Budget) (Result, error) {
	if err := checkArgs(eps, delta); err != nil {
		return Result{}, err
	}
	bt := &budgetTracker{budget: budget, ctx: trackerCtx(ctx)}
	rec := RecorderFrom(ctx)
	m := space.NumImages()
	n := CoverageIterations(m, eps, delta)

	bound := mt.NewBound(m) // the walk's Intn(m), compiled
	var steps, total, trials int64
	if m == 1 && rec == nil {
		// Every step's InSet(0) holds, so every step ends a trial and
		// only advances the stream: charge and advance a chunk at a
		// time. Every chunk but the last spans ctxStride steps, so
		// charge polls the context and the clock at the steps the unit
		// charges would; at MaxSamples the chunk is cut short and the
		// next is the single step whose charge fails, as in the loop.
		space.Draw(src)
		for steps < n {
			k := min(ctxStride, n-steps)
			if lim := budget.MaxSamples; lim > 0 {
				k = max(1, min(k, lim-steps))
			}
			if err := bt.charge(k); err != nil {
				return Result{Samples: bt.samples}, err
			}
			space.WalkOne(src, int(k))
			steps += k
		}
		total, trials = n, n
	} else {
	outer:
		for {
			space.Draw(src)
			for {
				steps++
				if steps > n {
					break outer
				}
				if err := bt.charge(1); err != nil {
					return Result{Samples: bt.samples}, err
				}
				// The coverage walk charges one draw per step, so checkpoints
				// land every ctxStride steps — the same cadence as the batched
				// loops' chunk boundaries.
				if rec != nil && steps%ctxStride == 0 {
					tr, tot := trials, total
					if tr == 0 {
						tr, tot = 1, steps
					}
					rec.observe(TrajectoryPoint{
						Samples:  bt.samples,
						Estimate: float64(tot) * space.Weight() / (float64(m) * float64(tr)),
						Progress: float64(steps) / float64(n),
						Phase:    "coverage",
					})
				}
				j := bound.Draw(src)
				if space.InSet(j) {
					break
				}
			}
			total = steps
			trials++
		}
	}
	if trials == 0 {
		// The first trial alone exceeded the step budget: the expected
		// steps per trial, m·|∪|/|S•|, is larger than N, so the union is
		// essentially all of the space; report the most conservative
		// estimate the data supports.
		total, trials = n, 1
	}
	// |∪| ≈ (total/trials) · |S•| / m; normalize by |db(B)|.
	est := float64(total) * space.Weight() / (float64(m) * float64(trials))
	if rec != nil {
		rec.final(TrajectoryPoint{
			Samples: bt.samples, Estimate: est, Progress: 1, Phase: "coverage",
		})
	}
	r := obs.Default()
	r.Counter("estimator_coverage_runs_total").Inc()
	r.Counter("estimator_coverage_steps_total").Add(bt.samples)
	r.Counter("estimator_coverage_trials_total").Add(trials)
	return Result{Estimate: est, Samples: bt.samples}, nil
}

// CoverageIterations is the deterministic step bound
// N = ⌈8(1+ε)·|H|·ln(3/δ) / ((1−ε²/8)·ε²)⌉ of [15] that
// SelfAdjustingCoverageContext walks; the harness and the
// balance-scenario analysis report it (it is linear in |H|, the fact
// driving Cover's runtime in Figures 1–2).
func CoverageIterations(numImages int, eps, delta float64) int64 {
	return int64(math.Ceil(8 * (1 + eps) * float64(numImages) * math.Log(3/delta) /
		((1 - eps*eps/8) * eps * eps)))
}
