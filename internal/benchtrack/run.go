package benchtrack

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/estimator"
	"cqabench/internal/obs"
	"cqabench/internal/obs/manifest"
	"cqabench/internal/scenario"
	"cqabench/internal/syncache"
	"cqabench/internal/synopsis"
)

// RunConfig controls one bench invocation.
type RunConfig struct {
	// Tier labels the result (the spec list is passed separately so
	// callers can subset it).
	Tier string
	// K is the repetition count per (scenario, scheme); medians are
	// taken over K runs. Defaults to 5.
	K int
	// Timeout bounds one scheme run over one scenario; 0 means none.
	Timeout time.Duration
	// Opts carries ε/δ/seed for the scheme runs.
	Opts cqa.Options
	// Schemes selects the schemes to bench (default: all four).
	Schemes []cqa.Scheme
	// Trace, if set, is the parent span the bench attributes work under:
	// one "bench:<scenario>" child per spec with synopsis.build and
	// per-run scheme spans below it.
	Trace *obs.Span
	// Progress, if set, is called after every completed (scenario,
	// scheme) entry.
	Progress func(Entry)
	// Cache, if enabled, warms the synopsis store once per spec: the
	// first bench run against a cache builds and persists every
	// synopsis, and later runs load them and measure estimation only —
	// which keeps BENCH_<tier>.json prep figures from polluting the
	// scheme medians with rebuild noise.
	Cache *syncache.Cache
}

// labSeed pins the scenario construction PRNG: bench scenarios must be
// byte-identical across runs or medians would not be comparable.
const labSeed = 1

// Run executes the bench: for every spec, build the scenario workload
// and its synopses once (the prep measurement), then time K runs of
// every scheme over the precomputed synopses. The result carries a
// provenance manifest so BENCH files are attributable.
func Run(specs []Spec, cfg RunConfig) (Result, error) {
	if cfg.K <= 0 {
		cfg.K = 5
	}
	schemes := cfg.Schemes
	if len(schemes) == 0 {
		schemes = cqa.Schemes
	}
	res := Result{Tier: cfg.Tier, K: cfg.K}
	res.Manifest = manifest.Collect("cqabench bench", map[string]string{
		"tier":    cfg.Tier,
		"k":       fmt.Sprint(cfg.K),
		"timeout": cfg.Timeout.String(),
		"eps":     fmt.Sprint(cfg.Opts.Eps),
		"delta":   fmt.Sprint(cfg.Opts.Delta),
		"seed":    fmt.Sprint(cfg.Opts.Seed),
	})

	labs := make(map[float64]*scenario.Lab)
	for _, spec := range specs {
		lab, ok := labs[spec.SF]
		if !ok {
			labCfg := scenario.DefaultConfig()
			labCfg.ScaleFactor = spec.SF
			labCfg.Seed = labSeed
			labCfg.QueriesPerJoin = 1
			var err error
			lab, err = scenario.NewLab(labCfg)
			if err != nil {
				return res, fmt.Errorf("benchtrack: %s: %w", spec.Name, err)
			}
			labs[spec.SF] = lab
		}
		entries, err := runSpec(lab, spec, schemes, cfg)
		if err != nil {
			return res, err
		}
		res.Entries = append(res.Entries, entries...)
	}
	return res, nil
}

func runSpec(lab *scenario.Lab, spec Spec, schemes []cqa.Scheme, cfg RunConfig) ([]Entry, error) {
	w, err := workloadFor(lab, spec)
	if err != nil {
		return nil, fmt.Errorf("benchtrack: %s: %w", spec.Name, err)
	}
	specSpan := cfg.Trace.StartChild("bench:" + spec.Name)
	defer specSpan.End()

	// A spec may pin an intra-query sampling pool; the override lives on
	// the per-spec copy so other specs keep the invocation's default.
	if spec.SamplingWorkers != 0 {
		cfg.Opts.SamplingWorkers = spec.SamplingWorkers
	}

	// Synopses are resolved once and shared across schemes and
	// repetitions, as in the harness; their wall time is the entry's
	// prep figure. With a cache configured, the first run builds and
	// stores them and every later run loads enc(syn) directly, so the
	// prep figure of a warm bench measures decoding, not construction.
	var sets []*synopsis.Set
	prepSource := ""
	prepStart := time.Now()
	buildSpan := specSpan.StartChild("synopsis.resolve")
	for _, pair := range w.Pairs {
		key := ""
		if cfg.Cache.Enabled() {
			key = syncache.PairKey(w, pair)
		}
		pair := pair
		set, source, err := cfg.Cache.Resolve(key, func() (*synopsis.Set, error) {
			return synopsis.Build(pair.DB, pair.Query)
		})
		if err != nil {
			buildSpan.End()
			return nil, fmt.Errorf("benchtrack: %s: %s: %w", spec.Name, pair.Name, err)
		}
		switch {
		case prepSource == "":
			prepSource = string(source)
		case prepSource != string(source):
			prepSource = "mixed"
		}
		sets = append(sets, set)
	}
	buildSpan.End()
	buildSpan.Rename("synopsis." + prepSourceOr(prepSource, "resolve"))
	prep := time.Since(prepStart)

	var out []Entry
	for _, s := range schemes {
		e := Entry{Scenario: spec.Name, Scheme: s.String(), PrepNanos: prep.Nanoseconds(), PrepSource: prepSource}
		var totalSamples int64
		for k := 0; k < cfg.K; k++ {
			elapsed, samples, timedOut, err := oneRun(sets, s, cfg, specSpan)
			if err != nil {
				return nil, fmt.Errorf("benchtrack: %s/%s: %w", spec.Name, s, err)
			}
			if timedOut {
				e.Timeouts++
			}
			e.RunsNanos = append(e.RunsNanos, elapsed.Nanoseconds())
			totalSamples += samples
		}
		e.MedianNanos = int64(Median(nanosToFloats(e.RunsNanos)))
		e.SamplesPerOp = float64(totalSamples) / float64(cfg.K)
		if cfg.Progress != nil {
			cfg.Progress(e)
		}
		out = append(out, e)
	}
	return out, nil
}

// oneRun times one scheme over every pair of the scenario. A run that
// exhausts its budget reports the nominal timeout as its latency and
// zero samples, mirroring the harness's timeout accounting.
func oneRun(sets []*synopsis.Set, s cqa.Scheme, cfg RunConfig, parent *obs.Span) (time.Duration, int64, bool, error) {
	opts := cfg.Opts
	if cfg.Timeout > 0 {
		opts.Budget.Deadline = time.Now().Add(cfg.Timeout)
	}
	runSpan := parent.StartChild("run:" + s.String())
	defer runSpan.End()
	ctx := obs.ContextWithSpan(context.Background(), runSpan)
	start := time.Now()
	var samples int64
	for _, set := range sets {
		_, stats, err := cqa.ApxAnswersFromSetContext(ctx, set, s, opts)
		samples += stats.Samples
		if err != nil {
			if errors.Is(err, estimator.ErrBudget) {
				return cfg.Timeout, 0, true, nil
			}
			return 0, 0, false, err
		}
	}
	return time.Since(start), samples, false, nil
}

// prepSourceOr returns s unless empty, else the fallback.
func prepSourceOr(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}

func workloadFor(lab *scenario.Lab, spec Spec) (*scenario.Workload, error) {
	switch spec.Family {
	case "noise":
		return lab.NoiseScenario(spec.Balance, spec.Joins, []float64{spec.Level})
	case "balance":
		return lab.BalanceScenario(spec.Noise, spec.Joins, []float64{spec.Level})
	case "joins":
		return lab.JoinsScenario(spec.Noise, spec.Balance, []int{int(spec.Level)})
	default:
		return nil, fmt.Errorf("unknown family %q (want noise, balance or joins)", spec.Family)
	}
}
