// Package cqa assembles the paper's approximation schemes for CQA.
//
// It implements the four data-efficient randomized approximation schemes
// for RelativeFreq — Natural (Algorithm 3), KL and KLM (Algorithm 4), and
// Cover (Algorithm 5) — and ApxCQA[·] (Algorithm 1) in the optimized form
// of Section 5: the synopses of all answer tuples are computed once by a
// shared preprocessing step (internal/synopsis.Build), then the chosen
// scheme approximates each tuple's relative frequency from its admissible
// pair alone.
package cqa

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cqabench/internal/cq"
	"cqabench/internal/cqaerr"
	"cqabench/internal/estimator"
	"cqabench/internal/mt"
	"cqabench/internal/obs"
	"cqabench/internal/relation"
	"cqabench/internal/sampler"
	"cqabench/internal/synopsis"
)

// Scheme identifies one of the paper's approximation schemes.
type Scheme int

const (
	// Natural samples repairs from the natural space db(B) (Algorithm 3).
	Natural Scheme = iota
	// KL samples from the symbolic space with the Karp–Luby first-witness
	// sampler (Algorithm 4 with Sampler 2).
	KL
	// KLM samples from the symbolic space with the Karp–Luby–Madras
	// reciprocal-count sampler (Algorithm 4 with Sampler 3).
	KLM
	// Cover runs the self-adjusting coverage algorithm (Algorithm 5).
	Cover
)

// Schemes lists every scheme in the paper's presentation order.
var Schemes = []Scheme{Natural, KL, KLM, Cover}

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case Natural:
		return "Natural"
	case KL:
		return "KL"
	case KLM:
		return "KLM"
	case Cover:
		return "Cover"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme resolves a scheme by (case-sensitive) name.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range Schemes {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("cqa: unknown scheme %q (want Natural, KL, KLM or Cover)", name)
}

// Options configures an approximation run. The paper's defaults are
// ε = 0.1 and δ = 0.25 (Section 6.3).
type Options struct {
	Eps   float64
	Delta float64
	Seed  uint64
	// Budget applies per relative-frequency estimation (per tuple); its
	// Deadline, if set, also bounds the run as a whole, mirroring the
	// paper's per-scenario timeout.
	Budget estimator.Budget
	// SamplingWorkers selects the intra-query sampling mode: 0 or 1 run
	// the classic sequential single-stream estimators (the default,
	// bit-identical to every release before the parallel path existed);
	// n ≥ 2 fan each tuple's draws over n workers via seed-derived
	// per-chunk substreams (estimator.MonteCarloParallel), and -1 sizes
	// that pool automatically (GOMAXPROCS). Parallel-mode estimates are
	// deterministic for a fixed Seed and identical for every pool size —
	// workers only change wall-clock time — but they consume a different
	// (substream-keyed) draw schedule than the sequential mode, so the
	// two modes' estimates differ for the same seed. Cover always runs
	// sequentially: its adaptive walk has data-dependent control flow
	// that cannot be pre-chunked. Values below -1 fail Validate.
	SamplingWorkers int
	// Convergence opts the run into per-tuple convergence-trajectory
	// recording (off by default; see ConvergenceOptions).
	Convergence ConvergenceOptions
}

// samplingPool resolves SamplingWorkers to the effective intra-query
// pool size and mode. The pool size goes through poolWorkers, the same
// clamp the tuple-parallel pool (ApxAnswersParallel) uses.
func (o Options) samplingPool() (workers int, parallel bool) {
	if o.SamplingWorkers == 0 || o.SamplingWorkers == 1 {
		return 1, false
	}
	return poolWorkers(o.SamplingWorkers), true
}

// SamplingPool resolves a SamplingWorkers setting to the effective
// intra-query pool size and whether the parallel sampling mode is
// selected — the same resolution the estimators apply. Exposed so
// callers (the estimation service's metrics, coalescing keys) can
// canonicalize settings that behave identically (e.g. 0 and 1 are both
// the sequential mode).
func SamplingPool(samplingWorkers int) (workers int, parallel bool) {
	return Options{SamplingWorkers: samplingWorkers}.samplingPool()
}

// DefaultOptions returns the paper's experimental setting.
func DefaultOptions() Options {
	return Options{Eps: 0.1, Delta: 0.25, Seed: mt.DefaultSeed}
}

// ErrInvalidOptions is wrapped by the errors Validate returns (alias of
// the shared sentinel, re-exported at the root as
// cqabench.ErrInvalidOptions).
var ErrInvalidOptions = cqaerr.ErrInvalidOptions

// Validate rejects option values the estimators cannot run with: ε and δ
// must lie strictly inside (0, 1) — the sample-complexity constants
// diverge or turn negative outside it — and the sample budget must be
// non-negative. Every public entry point (and the estimation service's
// request decoder) calls it before any sampling work starts; failures
// wrap ErrInvalidOptions.
func (o Options) Validate() error {
	if !(o.Eps > 0 && o.Eps < 1) {
		return fmt.Errorf("cqa: eps %v outside (0, 1): %w", o.Eps, ErrInvalidOptions)
	}
	if !(o.Delta > 0 && o.Delta < 1) {
		return fmt.Errorf("cqa: delta %v outside (0, 1): %w", o.Delta, ErrInvalidOptions)
	}
	if o.Budget.MaxSamples < 0 {
		return fmt.Errorf("cqa: negative sample budget %d: %w", o.Budget.MaxSamples, ErrInvalidOptions)
	}
	if o.SamplingWorkers < -1 {
		return fmt.Errorf("cqa: sampling workers %d (want -1 auto, 0/1 sequential, or a pool size ≥ 2): %w",
			o.SamplingWorkers, ErrInvalidOptions)
	}
	return o.Convergence.validate()
}

// TupleFreq pairs an answer tuple with its approximate relative frequency.
type TupleFreq struct {
	Tuple relation.Tuple
	Freq  float64
}

// Stats reports the work an approximation run performed.
type Stats struct {
	Samples    int64
	Elapsed    time.Duration
	PrepTime   time.Duration // synopsis construction, when done here
	NumTuples  int
	NumSamples int64 // alias of Samples kept for CSV column naming
	// GoodRatio is the samples-weighted mean of the per-tuple good-sample
	// ratios: the estimator's raw mean in the sampler's own space (before
	// the |S•|/|db(B)| reweighting for KL/KLM). It quantifies how often a
	// draw contributes signal — the r-goodness the schemes' sample
	// complexity depends on.
	GoodRatio float64
	// SamplingWorkers is the effective intra-query pool size the run used
	// (see Options.SamplingWorkers): 1 for the sequential mode and for
	// Cover, which always runs sequentially.
	SamplingWorkers int
	// Chunks counts the 256-draw substream chunks the parallel sampling
	// path consumed across all tuples; 0 for sequential-mode runs.
	Chunks int64
	// Stages is the wall-time breakdown of the run (sampler.init.<kernel>
	// — the kernel suffix records the shape-based plain/indexed choice —
	// estimate, other), from the run's span tree. Empty for parallel runs,
	// where per-worker wall times overlap and cannot be summed.
	Stages []obs.Stage
	// Convergence holds the recorded per-tuple trajectories when
	// Options.Convergence.Enabled was set; nil otherwise.
	Convergence []TupleTrajectory
}

// ApxRelativeFreq approximates R(H, B) for a single admissible pair with
// the chosen scheme: the body of ApxRelativeFreq in Algorithm 1 after the
// preprocessing step has established H ≠ ∅.
// When opts select the parallel sampling mode, the substream schedule
// is rooted at opts.Seed and src is consulted only by Cover.
func ApxRelativeFreq(pair *synopsis.Admissible, scheme Scheme, opts Options, src *mt.Source) (float64, int64, error) {
	res, err := apxRelativeFreq(context.Background(), pair, scheme, opts, src, opts.Seed, nil)
	return res.freq, res.samples, err
}

// tupleResult is one tuple's estimation outcome: the clamped frequency,
// the draws performed, and the raw sampler-space mean (the good-sample
// ratio).
type tupleResult struct {
	freq    float64
	samples int64
	good    float64
	chunks  int64 // substream chunks consumed (parallel mode only)
	// trajectory is the recorded convergence trajectory, nil unless
	// opts.Convergence.Enabled was set for this tuple.
	trajectory []estimator.TrajectoryPoint
}

// newKernelSampler builds the scheme's sampler for the kernel choice,
// returning the sampler and the estimate weight (|S•|/|db(B)| for the
// symbolic-space schemes, 1 otherwise). The parallel pool's workers
// draw from its forks, which share its compiled plan.
func newKernelSampler(pair *synopsis.Admissible, scheme Scheme, kernel sampler.Kernel) (sampler.Sampler, float64) {
	switch scheme {
	case Natural:
		if kernel == sampler.Indexed {
			return sampler.NewNaturalIndexed(pair), 1
		}
		return sampler.NewNatural(pair), 1
	case KL:
		if kernel == sampler.Indexed {
			kl := sampler.NewKLIndexed(pair)
			return kl, kl.Weight()
		}
		kl := sampler.NewKL(pair)
		return kl, kl.Weight()
	case KLM:
		if kernel == sampler.Indexed {
			klm := sampler.NewKLMIndexed(pair)
			return klm, klm.Weight()
		}
		klm := sampler.NewKLM(pair)
		return klm, klm.Weight()
	}
	return nil, 1
}

// apxRelativeFreq is ApxRelativeFreq with stage attribution — when
// parent is non-nil, sampler construction and estimation are recorded as
// child spans — and cooperative cancellation: ctx is polled at the
// estimation loops' chunk boundaries, never perturbing the PRNG stream
// of an uncancelled run.
//
// rootSeed roots this tuple's substream schedule when opts select the
// parallel sampling mode (for multi-tuple runs, the caller derives it
// per tuple via tupleSeed so every tuple sees independent substreams);
// the sequential mode and Cover draw from src and never read rootSeed.
func apxRelativeFreq(ctx context.Context, pair *synopsis.Admissible, scheme Scheme, opts Options, src *mt.Source, rootSeed uint64, parent *obs.Span) (tupleResult, error) {
	var rec *estimator.Recorder
	if opts.Convergence.Enabled {
		rec = estimator.NewRecorder(opts.Convergence.MaxPoints)
		ctx = estimator.WithRecorder(ctx, rec)
	}
	// Both kernels of a scheme consume the PRNG stream identically, so the
	// shape-based choice affects throughput only, never the estimate.
	kernel := sampler.SelectKernel(pair)
	sp := parent.StartChild("sampler.init." + kernel.String())
	var (
		s      sampler.Sampler
		space  estimator.SymbolicSpace
		weight = 1.0
	)
	if scheme == Cover {
		// Coverage probes images adaptively (data-dependent control flow);
		// it always runs on the plain symbolic space, sequentially.
		space = sampler.NewSymbolic(pair)
	} else {
		s, weight = newKernelSampler(pair, scheme, kernel)
		if s == nil {
			sp.End()
			return tupleResult{}, fmt.Errorf("cqa: unknown scheme %v", scheme)
		}
	}
	sp.End()
	obs.Default().Counter("cqa_kernel_selected_total",
		obs.L("scheme", scheme.String()), obs.L("kernel", kernel.String())).Inc()

	sp = parent.StartChild("estimate")
	var r estimator.Result
	var err error
	workers, parallelDraws := opts.samplingPool()
	switch {
	case space != nil:
		r, err = estimator.SelfAdjustingCoverageContext(ctx, space, opts.Eps, opts.Delta, src, opts.Budget)
	case parallelDraws:
		p := estimator.Parallel{
			Seed:       rootSeed,
			Workers:    workers,
			NewSampler: func() estimator.Sampler { return s.Fork() },
		}
		r, err = estimator.MonteCarloParallel(ctx, p, opts.Eps, opts.Delta, opts.Budget)
	default:
		r, err = estimator.MonteCarloContext(ctx, s, opts.Eps, opts.Delta, src, opts.Budget)
	}
	sp.End()

	est := r.Estimate * weight
	// A randomized estimate of a ratio can stray epsilon outside [0, 1];
	// clamp, since R(H,B) is a probability by definition.
	if est > 1 {
		est = 1
	}
	if est < 0 {
		est = 0
	}
	res := tupleResult{freq: est, samples: r.Samples, good: r.Estimate, chunks: r.Chunks}
	if rec != nil {
		res.trajectory = rec.Points()
	}
	return res, err
}

// recordRunMetrics publishes one scheme run's telemetry into the default
// registry. Called on both completed and failed (budget-exhausted) runs.
func recordRunMetrics(scheme Scheme, stats Stats, err error) {
	r := obs.Default()
	lbl := obs.L("scheme", scheme.String())
	r.Histogram("cqa_scheme_latency_seconds", lbl).Observe(stats.Elapsed.Seconds())
	r.Counter("sampler_samples_total", lbl).Add(stats.Samples)
	r.Gauge("sampler_good_ratio", lbl).Set(stats.GoodRatio)
	switch {
	case err == nil:
		r.Counter("cqa_runs_total", lbl).Inc()
	case errors.Is(err, estimator.ErrBudget):
		r.Counter("cqa_budget_exhausted_total", lbl).Inc()
	case errors.Is(err, estimator.ErrCanceled):
		r.Counter("cqa_canceled_total", lbl).Inc()
	default:
		r.Counter("cqa_errors_total", lbl).Inc()
	}
}

// ApxAnswersFromSet runs ApxCQA[scheme] over a precomputed synopsis set:
// one relative-frequency approximation per answer tuple. This is the
// measured phase of the paper's experiments (preprocessing excluded).
func ApxAnswersFromSet(set *synopsis.Set, scheme Scheme, opts Options) ([]TupleFreq, Stats, error) {
	return ApxAnswersFromSetTracedContext(context.Background(), set, scheme, opts, nil)
}

// ApxAnswersFromSetContext is ApxAnswersFromSet with cooperative
// cancellation: ctx is polled at the estimators' chunk boundaries, so an
// abort is observed within about one 256-draw chunk and reported as an
// error wrapping estimator.ErrCanceled. Estimates of uncancelled runs
// are bit-identical to ApxAnswersFromSet.
func ApxAnswersFromSetContext(ctx context.Context, set *synopsis.Set, scheme Scheme, opts Options) ([]TupleFreq, Stats, error) {
	return ApxAnswersFromSetTracedContext(ctx, set, scheme, opts, nil)
}

// ApxAnswersFromSetTraced is ApxAnswersFromSet with span attribution
// under parent: the run's root span ("cqa.<Scheme>", with sampler.init.<kernel> /
// estimate children) becomes a child of parent, so callers holding a
// span tree (the harness's -trace-out plumbing) capture the run in their
// trace. A nil parent reproduces ApxAnswersFromSet exactly.
func ApxAnswersFromSetTraced(set *synopsis.Set, scheme Scheme, opts Options, parent *obs.Span) ([]TupleFreq, Stats, error) {
	return ApxAnswersFromSetTracedContext(context.Background(), set, scheme, opts, parent)
}

// ApxAnswersFromSetTracedContext combines span attribution (see
// ApxAnswersFromSetTraced) with cooperative cancellation (see
// ApxAnswersFromSetContext). It validates opts before any work starts.
// When parent is nil but ctx carries a span (obs.StartSpan), the run's
// span tree attaches there instead — this is how the estimation
// service's per-request traces capture the cqa breakdown.
func ApxAnswersFromSetTracedContext(ctx context.Context, set *synopsis.Set, scheme Scheme, opts Options, parent *obs.Span) ([]TupleFreq, Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if parent == nil {
		parent = obs.FromContext(ctx)
	}
	root := parent.StartChild("cqa." + scheme.String())
	if root == nil {
		root = obs.NewSpan("cqa." + scheme.String())
	}
	src := mt.New(opts.Seed)
	out := make([]TupleFreq, 0, len(set.Entries))
	var stats Stats
	stats.SamplingWorkers = 1
	if w, par := opts.samplingPool(); par && scheme != Cover {
		stats.SamplingWorkers = w
	}
	var goodSum float64 // per-tuple good ratios weighted by sample count
	finish := func(err error) {
		root.End()
		stats.Elapsed = root.Duration()
		stats.Stages = root.Stages()
		stats.NumSamples = stats.Samples
		if stats.Samples > 0 {
			stats.GoodRatio = goodSum / float64(stats.Samples)
		}
		recordRunMetrics(scheme, stats, err)
	}
	for i := range set.Entries {
		e := &set.Entries[i]
		o := opts
		o.Convergence.Enabled = opts.Convergence.records(i)
		res, err := apxRelativeFreq(ctx, e.Pair, scheme, o, src, tupleSeed(opts.Seed, i), root)
		stats.Samples += res.samples
		stats.Chunks += res.chunks
		goodSum += res.good * float64(res.samples)
		if res.trajectory != nil {
			stats.Convergence = append(stats.Convergence, TupleTrajectory{Tuple: i, Points: res.trajectory})
		}
		if err != nil {
			finish(err)
			return nil, stats, fmt.Errorf("cqa: tuple %d: %w", i, err)
		}
		out = append(out, TupleFreq{Tuple: e.Tuple, Freq: res.freq})
	}
	stats.NumTuples = len(out)
	finish(nil)
	return out, stats, nil
}

// ApxAnswers is the end-to-end ApxCQA[scheme]: it builds syn_{Σ,Q}(D)
// (the preprocessing step) and approximates every positive-frequency
// tuple's relative frequency.
func ApxAnswers(db *relation.Database, q *cq.Query, scheme Scheme, opts Options) ([]TupleFreq, Stats, error) {
	return ApxAnswersContext(context.Background(), db, q, scheme, opts)
}

// ApxAnswersContext is ApxAnswers with cooperative cancellation through
// both phases: the synopsis build polls ctx every few thousand
// homomorphisms, the estimation loops at every chunk boundary. Options
// are validated before the (possibly expensive) preprocessing step.
func ApxAnswersContext(ctx context.Context, db *relation.Database, q *cq.Query, scheme Scheme, opts Options) ([]TupleFreq, Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	prepStart := time.Now()
	set, err := synopsis.BuildContext(ctx, db, q)
	if err != nil {
		return nil, Stats{}, err
	}
	prep := time.Since(prepStart)
	res, stats, err := ApxAnswersFromSetContext(ctx, set, scheme, opts)
	stats.PrepTime = prep
	return res, stats, err
}

// ExactAnswersFromSet computes the exact ans_{D,Σ}(Q) from a synopsis set
// by independent-component decomposition with per-component inclusion–
// exclusion, falling back to knowledge compilation on large components
// (Lemma 4.1(3)); it fails with synopsis.ErrTooLarge only on components
// too dense for both.
func ExactAnswersFromSet(set *synopsis.Set, maxImages int) ([]TupleFreq, error) {
	out := make([]TupleFreq, 0, len(set.Entries))
	for i := range set.Entries {
		e := &set.Entries[i]
		r, err := e.Pair.ExactRatioAuto(maxImages, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, TupleFreq{Tuple: e.Tuple, Freq: r})
	}
	return out, nil
}

// ExactAnswers computes the exact consistent answer end-to-end.
func ExactAnswers(db *relation.Database, q *cq.Query, maxImages int) ([]TupleFreq, error) {
	set, err := synopsis.Build(db, q)
	if err != nil {
		return nil, err
	}
	return ExactAnswersFromSet(set, maxImages)
}

// CertainAnswers returns the classic certain answers — tuples whose exact
// relative frequency is 1 — from the synopsis route. A tuple is certain
// iff every database in db(B) is covered by some image.
func CertainAnswers(db *relation.Database, q *cq.Query, maxImages int) ([]relation.Tuple, error) {
	all, err := ExactAnswers(db, q, maxImages)
	if err != nil {
		return nil, err
	}
	var out []relation.Tuple
	for _, tf := range all {
		// Inclusion–exclusion is exact up to float rounding; 1 is attained
		// exactly when the union covers db(B), but guard the comparison.
		if tf.Freq >= 1-1e-9 {
			out = append(out, tf.Tuple)
		}
	}
	return out, nil
}
