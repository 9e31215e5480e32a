// Package audit calibrates the (ε, δ) guarantee empirically: it replays
// scenario pairs through each approximation scheme — repeatedly, with
// independent seeds — and compares every estimate against the exact
// relative frequency (component-decomposed inclusion–exclusion with a
// knowledge-compilation fallback, Lemma 4.1(3)). The output is a
// calibration report per (scheme, scenario): the empirical error
// distribution, the observed violation rate next to the promised δ, and
// a samples-to-convergence histogram.
//
// The harness's AccuracyReport answers "did one run stay within ε?";
// this package answers the operational question VerdictDB-style systems
// ship beside every approximate answer — "how often does the guarantee
// fail, and by how much, under repeated sampling?". Every estimate also
// feeds the cqa_empirical_error / cqa_guarantee_violations_total /
// cqa_samples_to_convergence metrics, so a live service accumulates the
// same calibration continuously.
package audit

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/estimator"
	"cqabench/internal/obs"
	"cqabench/internal/obs/manifest"
	"cqabench/internal/scenario"
	"cqabench/internal/synopsis"
)

// Config parameterizes a calibration run.
type Config struct {
	// Eps and Delta are the guarantee under audit.
	Eps, Delta float64
	// Trials is the number of independent estimations per (scheme, tuple),
	// each with its own deterministic seed. More trials sharpen the
	// observed violation rate (each estimate is one Bernoulli(≤δ) draw).
	Trials int
	// Seed derives every trial's PRNG stream.
	Seed uint64
	// Schemes restricts the audit; nil audits all four.
	Schemes []cqa.Scheme
	// MaxImages bounds the exact computation per entangled component
	// (0 = the synopsis package's default). Tuples whose exact frequency
	// is intractable are skipped and counted.
	MaxImages int
	// Timeout bounds each estimate; timed-out estimates are excluded from
	// the distributions and counted per scheme.
	Timeout time.Duration
	// Registry receives the calibration metrics (nil = obs.Default()).
	Registry *obs.Registry
}

// DefaultConfig returns the paper's guarantee (ε = 0.1, δ = 0.25) with a
// small trial count suitable for smoke calibration.
func DefaultConfig() Config {
	return Config{Eps: 0.1, Delta: 0.25, Trials: 3, Seed: 5489, MaxImages: 22}
}

func (c Config) validate() error {
	if !(c.Eps > 0 && c.Eps < 1) || !(c.Delta > 0 && c.Delta < 1) {
		return fmt.Errorf("audit: require 0 < eps < 1 and 0 < delta < 1 (got eps=%v delta=%v)", c.Eps, c.Delta)
	}
	if c.Trials <= 0 {
		return fmt.Errorf("audit: trials must be positive (got %d)", c.Trials)
	}
	return nil
}

// ErrorDist summarizes a relative-error sample.
type ErrorDist struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// SampleBucket is one bin of the samples-to-convergence histogram: the
// number of estimates that converged within Le draws (and more than the
// previous bucket's Le). Bounds are powers of two.
type SampleBucket struct {
	Le    int64 `json:"le"`
	Count int   `json:"count"`
}

// SampleDist summarizes the draws-to-convergence distribution.
type SampleDist struct {
	Min     int64          `json:"min"`
	Max     int64          `json:"max"`
	Mean    float64        `json:"mean"`
	P50     int64          `json:"p50"`
	Buckets []SampleBucket `json:"buckets"`
}

// SchemeCalibration is one scheme's empirical calibration over the
// audited workload.
type SchemeCalibration struct {
	Scheme string `json:"scheme"`
	// Estimates is the number of audited estimates (tuples × trials,
	// minus timeouts).
	Estimates int `json:"estimates"`
	// Violations counts estimates with |a − f| > ε·f: the events the
	// guarantee promises happen with probability at most δ.
	Violations int `json:"violations"`
	// ViolationRate is Violations/Estimates — the observed δ.
	ViolationRate float64 `json:"violation_rate"`
	// TimedOut counts estimates abandoned on the per-estimate budget.
	TimedOut int        `json:"timed_out,omitempty"`
	Error    ErrorDist  `json:"error"`
	Samples  SampleDist `json:"samples"`
}

// Report is a full calibration: the audited guarantee, the workload, and
// one calibration per scheme.
type Report struct {
	Scenario string  `json:"scenario"`
	Eps      float64 `json:"eps"`
	Delta    float64 `json:"delta"`
	Trials   int     `json:"trials"`
	// Tuples is the number of answer tuples with a tractable exact
	// frequency; each contributes Trials estimates per scheme.
	Tuples int `json:"tuples"`
	// SkippedTuples counts tuples excluded because their exact frequency
	// was intractable (or zero, where relative error is undefined).
	SkippedTuples int                 `json:"skipped_tuples,omitempty"`
	Schemes       []SchemeCalibration `json:"schemes"`
}

// schemeAccum collects one scheme's raw observations during a run.
type schemeAccum struct {
	relErrs  []float64
	samples  []int64
	timedOut int
}

// Run audits every configured scheme over the workload. Each tuple with
// a tractable exact frequency is estimated Trials times per scheme, each
// trial on its own deterministic PRNG stream, and every estimate is
// scored against the exact value.
func Run(w *scenario.Workload, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	schemes := cfg.Schemes
	if len(schemes) == 0 {
		schemes = cqa.Schemes
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	rep := &Report{Scenario: w.Name, Eps: cfg.Eps, Delta: cfg.Delta, Trials: cfg.Trials}
	acc := make(map[cqa.Scheme]*schemeAccum, len(schemes))
	for _, s := range schemes {
		acc[s] = &schemeAccum{}
	}

	tupleOrd := uint64(0) // global tuple ordinal, for per-trial seed derivation
	for _, pair := range w.Pairs {
		set, err := synopsis.Build(pair.DB, pair.Query)
		if err != nil {
			return nil, err
		}
		for i := range set.Entries {
			entry := &set.Entries[i]
			ord := tupleOrd
			tupleOrd++
			exact, err := entry.Pair.ExactRatioAuto(cfg.MaxImages, 0)
			if err != nil {
				if errors.Is(err, synopsis.ErrTooLarge) {
					rep.SkippedTuples++
					continue
				}
				return nil, err
			}
			if exact <= 0 {
				// Relative error is undefined at f = 0 (and the schemes
				// only ever see positive-frequency tuples anyway).
				rep.SkippedTuples++
				continue
			}
			rep.Tuples++
			one := &synopsis.Set{Entries: []synopsis.Entry{*entry}}
			for _, s := range schemes {
				lbl := obs.L("scheme", s.String())
				a := acc[s]
				for trial := 0; trial < cfg.Trials; trial++ {
					// Independent deterministic streams: golden-ratio mixing
					// over (tuple, trial), the same construction the tuple
					// pool uses per tuple. The trial runs the tuple as a
					// one-entry set, which draws from mt.New(opts.Seed).
					opts := cqa.Options{Eps: cfg.Eps, Delta: cfg.Delta,
						Seed: cfg.Seed + ord*0x9E3779B97F4A7C15 + uint64(trial)*0xBF58476D1CE4E5B9}
					if cfg.Timeout > 0 {
						opts.Budget.Deadline = time.Now().Add(cfg.Timeout)
					}
					res, stats, err := cqa.ApxAnswersFromSetContext(context.Background(), one, s, opts)
					if err != nil {
						if errors.Is(err, estimator.ErrBudget) {
							a.timedOut++
							continue
						}
						return nil, fmt.Errorf("audit: %s on %s tuple %d: %w", s, pair.Name, i, err)
					}
					relErr := math.Abs(res[0].Freq-exact) / exact
					a.relErrs = append(a.relErrs, relErr)
					a.samples = append(a.samples, stats.Samples)
					reg.Histogram("cqa_empirical_error", lbl).Observe(relErr)
					reg.Histogram("cqa_samples_to_convergence", lbl).Observe(float64(stats.Samples))
					if relErr > cfg.Eps+1e-12 {
						reg.Counter("cqa_guarantee_violations_total", lbl).Inc()
					}
				}
			}
		}
	}

	for _, s := range schemes {
		rep.Schemes = append(rep.Schemes, calibrate(s, acc[s], cfg.Eps))
	}
	sort.Slice(rep.Schemes, func(i, j int) bool { return rep.Schemes[i].Scheme < rep.Schemes[j].Scheme })
	return rep, nil
}

// calibrate reduces one scheme's raw observations to its calibration.
func calibrate(s cqa.Scheme, a *schemeAccum, eps float64) SchemeCalibration {
	cal := SchemeCalibration{Scheme: s.String(), Estimates: len(a.relErrs), TimedOut: a.timedOut}
	if len(a.relErrs) == 0 {
		return cal
	}
	errs := append([]float64(nil), a.relErrs...)
	sort.Float64s(errs)
	var errSum float64
	for _, e := range errs {
		errSum += e
		if e > eps+1e-12 {
			cal.Violations++
		}
	}
	cal.ViolationRate = float64(cal.Violations) / float64(len(errs))
	cal.Error = ErrorDist{
		Mean: errSum / float64(len(errs)),
		P50:  quantF(errs, 0.50),
		P90:  quantF(errs, 0.90),
		P99:  quantF(errs, 0.99),
		Max:  errs[len(errs)-1],
	}

	samples := append([]int64(nil), a.samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sampleSum int64
	for _, n := range samples {
		sampleSum += n
	}
	cal.Samples = SampleDist{
		Min:     samples[0],
		Max:     samples[len(samples)-1],
		Mean:    float64(sampleSum) / float64(len(samples)),
		P50:     samples[quantIdx(len(samples), 0.50)],
		Buckets: powerOfTwoBuckets(samples),
	}
	return cal
}

// quantIdx returns the index of the q-quantile in a sorted sample of
// length n (nearest-rank).
func quantIdx(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func quantF(sorted []float64, q float64) float64 {
	return sorted[quantIdx(len(sorted), q)]
}

// powerOfTwoBuckets bins a sorted sample into ≤2^k upper bounds.
func powerOfTwoBuckets(sorted []int64) []SampleBucket {
	var out []SampleBucket
	le := int64(1)
	i := 0
	for i < len(sorted) {
		for sorted[i] > le {
			le *= 2
		}
		n := 0
		for i < len(sorted) && sorted[i] <= le {
			n++
			i++
		}
		out = append(out, SampleBucket{Le: le, Count: n})
		le *= 2
	}
	return out
}

// Violated returns the schemes whose observed violation rate exceeds the
// promised δ — the guarantee's empirical failures.
func (r *Report) Violated() []string {
	var out []string
	for _, s := range r.Schemes {
		if s.Estimates > 0 && s.ViolationRate > r.Delta {
			out = append(out, s.Scheme)
		}
	}
	return out
}

// Table renders the calibration for terminals.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Guarantee calibration: %s (eps=%.2f, delta=%.2f, %d tuples x %d trials)\n",
		r.Scenario, r.Eps, r.Delta, r.Tuples, r.Trials)
	fmt.Fprintf(&b, "%-8s %9s %10s %9s %9s %9s %9s %11s %11s\n",
		"scheme", "estimates", "violations", "obs-rate", "mean-err", "p90-err", "max-err", "p50-samples", "max-samples")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, "%-8s %9d %10d %8.1f%% %9.4f %9.4f %9.4f %11d %11d\n",
			s.Scheme, s.Estimates, s.Violations, 100*s.ViolationRate,
			s.Error.Mean, s.Error.P90, s.Error.Max, s.Samples.P50, s.Samples.Max)
	}
	if r.SkippedTuples > 0 {
		fmt.Fprintf(&b, "(%d tuples skipped: exact frequency intractable or zero)\n", r.SkippedTuples)
	}
	if v := r.Violated(); len(v) > 0 {
		fmt.Fprintf(&b, "GUARANTEE VIOLATED (rate > delta): %s\n", strings.Join(v, ", "))
	} else {
		fmt.Fprintf(&b, "guarantee holds: every scheme's observed violation rate <= delta\n")
	}
	return b.String()
}

// WriteJSON emits the calibration wrapped in the standard provenance
// envelope ({"manifest": ..., "report": ...}).
func (r *Report) WriteJSON(w io.Writer, m *manifest.RunManifest) error {
	envelope := struct {
		Manifest *manifest.RunManifest `json:"manifest,omitempty"`
		Report   *Report               `json:"report"`
	}{Manifest: m, Report: r}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(envelope)
}
