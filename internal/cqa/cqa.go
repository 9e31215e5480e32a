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
	"runtime"
	"sync"
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
	// Budget caps each relative-frequency estimation's (each tuple's)
	// draws; a tuple past it fails with ErrBudget. The run's time bound
	// is its context's deadline, as the paper's per-scenario timeout is.
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
	// TupleWorkers selects how the answer loop walks the tuples. 0 (the
	// default) is one sequential loop: every tuple draws from a single
	// MT19937-64 stream seeded with Seed, in answer order, and the run
	// stops at the first failing tuple. n ≥ 1 fans the tuples over a pool
	// of n workers: tuple i draws from its own stream, seeded from Seed
	// and i, so results do not depend on scheduling, and every tuple runs
	// even after one fails. -1 sizes the pool automatically (GOMAXPROCS).
	// The mode follows the setting, not the resolved pool size, so a pool
	// of 1 draws the per-tuple streams too and results never depend on
	// the host's core count. Values below -1 fail Validate.
	//
	// A tuple whose estimate reads no value of its stream (a one-image
	// KL, KLM or Cover tuple, and in the parallel sampling mode every
	// Natural, KL and KLM tuple) gets no stream in a pool, and none in
	// the sequential loop once no later tuple reads the shared stream.
	// No estimate changes: a one-image tuple before a reading one still
	// advances the shared stream word for word.
	//
	// The two settings compose: in the parallel sampling mode each tuple's
	// substreams are rooted at the same per-tuple seed in either tuple
	// mode, so Natural, KL and KLM return the same estimates with or
	// without a pool. Sequential sampling and Cover (which always samples
	// sequentially) draw from the tuple's stream, which is the shared
	// stream in the sequential loop and a per-tuple stream in a pool, so
	// their estimates differ between the two tuple modes.
	TupleWorkers int
	// Convergence opts the run into per-tuple convergence-trajectory
	// recording (off by default; see ConvergenceOptions).
	Convergence ConvergenceOptions
}

// samplingPool resolves SamplingWorkers to the effective intra-query
// pool size and mode. The pool size goes through poolWorkers, the same
// clamp the tuple pool (TupleWorkers) uses.
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

// poolWorkers is the single worker-count clamp both pools go through:
// the tuple pool (TupleWorkers) and the intra-query sampling pool
// (SamplingWorkers, resolved by Options.samplingPool). Non-positive
// requests select GOMAXPROCS; the result is always ≥ 1.
func poolWorkers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// tupleSeed derives tuple i's root seed from the run seed: a golden-
// ratio stride keeps per-tuple streams (and, in parallel sampling mode,
// per-tuple substream families) disjoint and deterministic. Both tuple
// modes root a tuple's substreams here, and the tuple pool also seeds
// the tuple's own stream with it.
func tupleSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9E3779B97F4A7C15
}

// readsStream reports whether a tuple's estimate reads values from the
// stream the answer loop hands it. On a one-image pair Samplers 2 and 3
// return 1 on every draw and every trial of Cover's walk ends after one
// step, so only Natural's draws read values there; in the parallel
// sampling mode Natural, KL and KLM draw from per-chunk substreams and
// read no value of the tuple's stream at all.
func readsStream(pair *synopsis.Admissible, scheme Scheme, parallel bool) bool {
	if parallel && scheme != Cover {
		return false
	}
	return scheme == Natural || pair.NumImages() > 1
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
// non-negative. The answer call (and the estimation service's request
// decoder) calls it before any sampling work starts; failures wrap
// ErrInvalidOptions.
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
	if o.TupleWorkers < -1 {
		return fmt.Errorf("cqa: tuple workers %d (want -1 auto, 0 sequential, or a pool size ≥ 1): %w",
			o.TupleWorkers, ErrInvalidOptions)
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
	Samples int64
	Elapsed time.Duration
	// NumTuples counts the tuples the run answered: every tuple of the
	// set, or 0 when the sequential loop stopped at a failing tuple. A
	// tuple pool runs every tuple, so it reports them all on errors too.
	NumTuples int
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
	// estimate, other), from the run's span tree. Empty for tuple-pool
	// runs, where per-worker wall times overlap and cannot be summed.
	Stages []obs.Stage
	// Convergence holds the recorded per-tuple trajectories when
	// Options.Convergence.Enabled was set; nil otherwise.
	Convergence []TupleTrajectory
}

// tupleResult is one tuple's estimation outcome: the clamped frequency,
// the estimator's Result (its draws, its raw sampler-space mean, which
// is the good-sample ratio, and its phases, chunks and trials), and the
// error that ended the estimation, if any.
type tupleResult struct {
	freq float64
	est  estimator.Result
	// trajectory is the recorded convergence trajectory, nil unless
	// opts.Convergence.Enabled was set for this tuple.
	trajectory []estimator.TrajectoryPoint
	kernel     sampler.Kernel // the shape-based choice, tallied per run
	err        error
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

// estimateTuple approximates R(H, B) for one admissible pair with the
// chosen scheme: Algorithm 1's per-tuple relative-frequency step after
// the preprocessing step has established H ≠ ∅. When parent is non-nil,
// sampler construction and estimation are recorded as child spans; ctx
// is polled at the estimation loops' chunk boundaries, never perturbing
// the PRNG stream of an uncancelled run.
//
// rootSeed roots this tuple's substream schedule when opts select the
// parallel sampling mode (the answer loop derives it per tuple via
// tupleSeed so every tuple sees independent substreams); the sequential
// mode and Cover draw from src and never read rootSeed. src is nil where
// the answer loop hands the tuple no stream, as its draws read no value
// of one (readsStream).
func estimateTuple(ctx context.Context, pair *synopsis.Admissible, scheme Scheme, opts Options, src *mt.Source, rootSeed uint64, parent *obs.Span) tupleResult {
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
	}
	sp.End()

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
	res := tupleResult{freq: est, est: r, kernel: kernel, err: err}
	if rec != nil {
		res.trajectory = rec.Points()
	}
	return res
}

// recordRunMetrics publishes one scheme run's telemetry into the default
// registry: its Stats, the sampler.Kernel each tuple that drew used, and
// the work of the estimations that completed, which the estimators
// report but do not publish. Called on both completed and failed runs.
// Each series takes one lookup per run, where a lookup per tuple cost
// about as much as a one-image tuple's estimation loop.
func recordRunMetrics(scheme Scheme, stats Stats, ran []tupleResult, err error) {
	var kernels [2]int64
	var done estimator.Result // the completed estimations' work, summed
	var runs int64
	for _, t := range ran {
		if t.est.Samples > 0 {
			kernels[t.kernel]++
		}
		if t.err == nil {
			runs++
			done.Samples += t.est.Samples
			done.Trials += t.est.Trials
			for p, n := range t.est.Phases {
				done.Phases[p] += n
			}
		}
	}
	r := obs.Default()
	switch {
	case runs == 0:
	case scheme == Cover:
		r.Counter("estimator_coverage_runs_total").Add(runs)
		r.Counter("estimator_coverage_steps_total").Add(done.Samples)
		r.Counter("estimator_coverage_trials_total").Add(done.Trials)
	default:
		r.Counter("estimator_mc_runs_total").Add(runs)
		for p, phase := range [...]string{"stopping", "variance", "final"} {
			r.Counter("estimator_mc_samples_total", obs.L("phase", phase)).Add(done.Phases[p])
		}
	}
	lbl := obs.L("scheme", scheme.String())
	for k, n := range kernels {
		if n > 0 {
			r.Counter("cqa_kernel_selected_total", lbl, obs.L("kernel", sampler.Kernel(k).String())).Add(n)
		}
	}
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

// ApxAnswersFromSetContext runs ApxCQA[scheme] over a precomputed
// synopsis set: one relative-frequency approximation per answer tuple.
// This is the measured phase of the paper's experiments (preprocessing
// excluded), and the package's only answer call.
//
// It validates opts and the scheme before any work starts. ctx is the
// run's only deadline: a tuple that starts on a canceled or expired
// context fails before its first draw, and a running tuple stops within
// about one 256-draw chunk, with an error wrapping estimator.ErrCanceled
// and the context's own sentinel. The run's span ("cqa.<Scheme>", with
// sampler.init.<kernel> / estimate children in the sequential loop)
// becomes a child of the span ctx carries (obs.ContextWithSpan), which
// is how the harness's traces and the estimation service's per-request
// traces capture the breakdown. opts.TupleWorkers picks the sequential
// loop or a tuple pool; both fill one result slot per tuple, and one
// reduction in index order computes the Stats.
func ApxAnswersFromSetContext(ctx context.Context, set *synopsis.Set, scheme Scheme, opts Options) ([]TupleFreq, Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if scheme < Natural || scheme > Cover {
		return nil, Stats{}, fmt.Errorf("cqa: unknown scheme %v", scheme)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	root := obs.FromContext(ctx).StartChild("cqa." + scheme.String())
	if root == nil {
		root = obs.NewSpan("cqa." + scheme.String())
	}
	slots := make([]tupleResult, len(set.Entries))
	estimate := func(i int, src *mt.Source, parent *obs.Span) error {
		// No tuple starts drawing on a dead context. The check draws no
		// PRNG word, so a run that finishes is unchanged by it.
		if err := ctx.Err(); err != nil {
			slots[i] = tupleResult{err: cqaerr.Canceled(err)}
			return slots[i].err
		}
		o := opts
		o.Convergence.Enabled = opts.Convergence.records(i)
		slots[i] = estimateTuple(ctx, set.Entries[i].Pair, scheme, o, src, tupleSeed(opts.Seed, i), parent)
		return slots[i].err
	}
	workers, parallel := opts.samplingPool()
	reads := func(i int) bool { return readsStream(set.Entries[i].Pair, scheme, parallel) }
	ran := len(slots)
	if opts.TupleWorkers == 0 {
		// The tuples after the last one that reads the shared stream
		// get none: their estimates read no value, and no later tuple
		// reads where they would have left the stream.
		last := len(slots) - 1
		for last >= 0 && !reads(last) {
			last--
		}
		var src *mt.Source
		if last >= 0 {
			src = mt.New(opts.Seed)
		}
		for i := range slots {
			if i > last {
				src = nil
			}
			if estimate(i, src, root) != nil {
				ran = i + 1
				break
			}
		}
	} else {
		// Each tuple owns a stream seeded from its index, so results do
		// not depend on which worker runs it. Workers record no spans:
		// their wall times overlap.
		var wg sync.WaitGroup
		next := make(chan int)
		for w := poolWorkers(opts.TupleWorkers); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					var src *mt.Source
					if reads(i) {
						src = mt.New(tupleSeed(opts.Seed, i))
					}
					estimate(i, src, nil)
				}
			}()
		}
		for i := range slots {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	root.End()

	stats := Stats{Elapsed: root.Duration(), SamplingWorkers: 1}
	if parallel && scheme != Cover {
		stats.SamplingWorkers = workers
	}
	var goodSum float64 // per-tuple good ratios weighted by sample count
	var err error
	for i, r := range slots[:ran] {
		stats.Samples += r.est.Samples
		stats.Chunks += r.est.Chunks
		goodSum += r.est.Estimate * float64(r.est.Samples)
		if r.trajectory != nil {
			stats.Convergence = append(stats.Convergence, TupleTrajectory{Tuple: i, Points: r.trajectory})
		}
		if r.err != nil && err == nil {
			err = fmt.Errorf("cqa: tuple %d: %w", i, r.err)
		}
	}
	if stats.Samples > 0 {
		stats.GoodRatio = goodSum / float64(stats.Samples)
	}
	// The sequential loop answers every tuple or none; a pool runs them
	// all. Only the sequential loop's spans sum to its wall time.
	if err == nil || opts.TupleWorkers != 0 {
		stats.NumTuples = len(slots)
	}
	if opts.TupleWorkers == 0 {
		stats.Stages = root.Stages()
	}
	recordRunMetrics(scheme, stats, slots[:ran], err)
	if err != nil {
		return nil, stats, err
	}
	out := make([]TupleFreq, len(slots))
	for i, r := range slots {
		out[i] = TupleFreq{Tuple: set.Entries[i].Tuple, Freq: r.freq}
	}
	return out, stats, nil
}

// ExactAnswersFromSet computes the exact ans_{D,Σ}(Q) from a synopsis set
// (Lemma 4.1(3)), one synopsis.Admissible.Exact call per tuple. timeout,
// if positive, bounds the whole set, counted from the call; past it the
// call fails with an error wrapping cqaerr.ErrCanceled and
// context.DeadlineExceeded. A tuple whose
// compilation exceeds Exact's node bound fails it with
// synopsis.ErrTooLarge.
func ExactAnswersFromSet(set *synopsis.Set, timeout time.Duration) ([]TupleFreq, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	out := make([]TupleFreq, 0, len(set.Entries))
	for i := range set.Entries {
		e := &set.Entries[i]
		r, err := e.Pair.Exact(ctx)
		if err != nil {
			return nil, fmt.Errorf("cqa: tuple %d: %w", i, err)
		}
		out = append(out, TupleFreq{Tuple: e.Tuple, Freq: r})
	}
	return out, nil
}

// ExactAnswers computes the exact consistent answer end-to-end, with no
// time bound.
func ExactAnswers(db *relation.Database, q *cq.Query) ([]TupleFreq, error) {
	set, err := synopsis.Build(db, q)
	if err != nil {
		return nil, err
	}
	return ExactAnswersFromSet(set, 0)
}

// CertainAnswers returns the classic certain answers — tuples whose exact
// relative frequency is 1 — from the synopsis route. A tuple is certain
// iff every database in db(B) is covered by some image. It fails as
// ExactAnswers does.
func CertainAnswers(db *relation.Database, q *cq.Query) ([]relation.Tuple, error) {
	all, err := ExactAnswers(db, q)
	if err != nil {
		return nil, err
	}
	var out []relation.Tuple
	for _, tf := range all {
		// The exact count is exact up to float rounding; 1 is attained
		// exactly when the union covers db(B), but guard the comparison.
		if tf.Freq >= 1-1e-9 {
			out = append(out, tf.Tuple)
		}
	}
	return out, nil
}
