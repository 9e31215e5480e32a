// Package harness runs the approximation schemes over test scenarios and
// aggregates the paper's figures: per-scheme mean running time against the
// varied parameter (noise, balance), per-scheme share of running time
// against the join count, the preprocessing-time distribution, and the
// validation series. Timeouts are imposed per scheme invocation, like the
// paper's per-scenario 1-hour cap, and reported as counts next to the
// affected points, like the integer annotations in Figures 1–2.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/estimator"
	"cqabench/internal/obs"
	"cqabench/internal/obs/manifest"
	"cqabench/internal/scenario"
	"cqabench/internal/syncache"
	"cqabench/internal/synopsis"
)

// Config controls a harness run.
type Config struct {
	// Opts carries ε, δ and the seed (paper: ε = 0.1, δ = 0.25).
	Opts cqa.Options
	// Timeout bounds each (pair, scheme) run, as a deadline on the
	// context of that run; 0 means none. A run past it, or past its
	// Opts.Budget sample cap, is reported timed out.
	Timeout time.Duration
	// Progress, if set, is called after every (pair, scheme) measurement;
	// the CLI's -progress flag uses it to stream status lines to stderr.
	Progress func(Measurement)
	// Trace, if set, is the parent span the run attributes all work
	// under: one "pair:<name>" child per pair, holding a synopsis.build
	// (or, on a cache hit, synopsis.load) span and one "cqa.<Scheme>"
	// span tree per scheme run. The CLI's -trace-out flag exports the
	// resulting tree via internal/obs/trace.
	Trace *obs.Span
	// Cache, if enabled, is consulted before every synopsis build and
	// updated after: a warm run loads enc(syn) directly and skips the
	// build. A nil or disabled cache reproduces the uncached behavior.
	Cache *syncache.Cache
	// Context, when set, aborts the whole run cooperatively: synopsis
	// builds and estimations observe it at their usual poll points and
	// Run returns an error wrapping estimator.ErrCanceled. Nil means
	// context.Background() — runs are then bounded only by Timeout.
	Context context.Context
}

// context returns the run's context, defaulting to Background.
func (c Config) context() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// Measurement records one scheme run over one pair.
type Measurement struct {
	Pair     string
	Scheme   cqa.Scheme
	Level    float64 // the x-axis value of the scenario family
	Elapsed  time.Duration
	Prep     time.Duration
	Samples  int64
	Tuples   int
	TimedOut bool
	// Reason distinguishes failure modes: "" for a completed run,
	// "timeout" when the per-(pair, scheme) budget expired. Timed-out
	// measurements report zero Samples/Prep — the partial counts of an
	// aborted invocation are not comparable to completed ones.
	Reason string
	// Stages is the span breakdown of Elapsed into pipeline stages
	// (sampler.init.<kernel> / estimate / other); the stage durations
	// always sum to Elapsed exactly.
	Stages []obs.Stage
	// PrepSource records where the pair's synopsis came from: "build"
	// (computed this run) or "load" (decoded from the synopsis cache).
	PrepSource string
}

// Point aggregates the measurements of one scheme at one level.
type Point struct {
	Level    float64
	Mean     time.Duration // mean over the level's pairs; timeouts count at the timeout value
	Timeouts int
	Count    int
}

// Series is one scheme's curve.
type Series struct {
	Scheme cqa.Scheme
	Points []Point
}

// Figure is the data behind one plot.
type Figure struct {
	Title  string
	XLabel string
	// Axis is the parameter the figure's workload sweeps; it picks the
	// table view (see Table).
	Axis      scenario.Axis
	Series    []Series
	PrepTimes []time.Duration
	// Balances records the achieved balance per pair (validation figures
	// report its average and standard deviation in their captions).
	Balances []float64
	Raw      []Measurement
	// Manifest is the run's provenance record (git sha, host, Go
	// toolchain, ε/δ/seed/timeout), populated by Run and embedded in the
	// figure JSON so every persisted result is attributable.
	Manifest *manifest.RunManifest
}

// prepared is the outcome of the synopsis-preparation phase for one
// pair: the synopsis (loaded or built), where it came from, and the
// wall time it took.
type prepared struct {
	set    *synopsis.Set
	source syncache.Source
	prep   time.Duration
	err    error
}

// prepare resolves the synopses of every pair — from the cache when
// warm, by building (and storing) when cold — over a pool of GOMAXPROCS
// workers, at most 8 and at most one per pair. Preparation is
// deterministic regardless of the worker count: synopsis construction
// draws no random numbers, and results are indexed by pair, not by
// completion. Each pair's "pair:" trace span is created here, in pair
// order, and stays open for the measurement phase to attach scheme
// spans to.
func prepare(w *scenario.Workload, cfg Config, spans []*obs.Span) []prepared {
	workers := min(runtime.GOMAXPROCS(0), 8, len(w.Pairs))
	out := make([]prepared, len(w.Pairs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range w.Pairs {
		spans[i] = cfg.Trace.StartChild("pair:" + w.Pairs[i].Name)
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			pair := w.Pairs[i]
			start := time.Now()
			key := syncache.PairKey(w, pair)
			if !cfg.Cache.Enabled() {
				key = ""
			}
			span := spans[i].StartChild("synopsis.resolve")
			set, source, err := cfg.Cache.Resolve(key, func() (*synopsis.Set, error) {
				return synopsis.BuildContext(cfg.context(), pair.DB, pair.Query)
			})
			span.End()
			// Rename the span after the fact so traces show what
			// actually happened: a load or a build.
			span.Rename("synopsis." + string(source))
			out[i] = prepared{set: set, source: source, prep: time.Since(start), err: err}
		}(i)
	}
	wg.Wait()
	return out
}

// Run measures every scheme on every pair of the workload. Each pair's
// x-axis value, and the figure's x label and table view, come from the
// workload's axis: noise %, target balance % or join count. The
// synopsis of each pair is computed once and shared across schemes, as
// in Section 5; with a cache configured, it is loaded from disk instead
// whenever the pair's content address hits (the prep phase of a warm
// run is then pure decoding). Cold synopses are prepared concurrently
// (see prepare); the scheme measurements themselves stay strictly
// sequential so timings are never distorted by a concurrent build.
func Run(w *scenario.Workload, cfg Config) (*Figure, error) {
	label := w.Axis.Label()
	if label == "" {
		return nil, fmt.Errorf("harness: workload %q has unknown axis %q", w.Name, w.Axis)
	}
	fig := &Figure{Title: w.Name, XLabel: label, Axis: w.Axis}
	fig.Manifest = runManifest(w.Name, cfg)
	reg := obs.Default()
	perScheme := make(map[cqa.Scheme]map[float64][]Measurement)
	for _, s := range cqa.Schemes {
		perScheme[s] = make(map[float64][]Measurement)
		// Eager registration: the timeout counters must be scrapeable (at
		// zero) even before the first timeout occurs.
		reg.Counter("harness_timeouts_total", obs.L("scheme", s.String()))
	}
	pairSpans := make([]*obs.Span, len(w.Pairs))
	preps := prepare(w, cfg, pairSpans)
	for i, pair := range w.Pairs {
		pairSpan := pairSpans[i]
		if preps[i].err != nil {
			for _, ps := range pairSpans[i:] {
				ps.End()
			}
			return nil, fmt.Errorf("harness: %s: %w", pair.Name, preps[i].err)
		}
		set, prep := preps[i].set, preps[i].prep
		fig.PrepTimes = append(fig.PrepTimes, prep)
		fig.Balances = append(fig.Balances, pair.Balance)
		lv := w.Axis.Level(pair)
		for _, s := range cqa.Schemes {
			ctx, cancel := cfg.context(), func() {}
			if cfg.Timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
			}
			start := time.Now()
			_, stats, err := cqa.ApxAnswersFromSetContext(obs.ContextWithSpan(ctx, pairSpan), set, s, cfg.Opts)
			elapsed := time.Since(start)
			cancel()
			m := Measurement{
				Pair:       pair.Name,
				Scheme:     s,
				Level:      lv,
				Elapsed:    elapsed,
				Prep:       prep,
				Samples:    stats.Samples,
				Tuples:     stats.NumTuples,
				PrepSource: string(preps[i].source),
			}
			if err != nil {
				// The cell's own deadline or sample cap times it out; an
				// abort of the run's context fails the run.
				timedOut := errors.Is(err, estimator.ErrBudget) ||
					errors.Is(err, context.DeadlineExceeded) && cfg.context().Err() == nil
				if !timedOut {
					for _, ps := range pairSpans[i:] {
						ps.End()
					}
					return nil, fmt.Errorf("harness: %s %v: %w", pair.Name, s, err)
				}
				m.TimedOut = true
				m.Elapsed = cfg.Timeout
				// An aborted invocation's partial sample/prep figures are
				// not comparable to completed runs; report zeros and a
				// distinct reason instead.
				m.Samples = 0
				m.Prep = 0
				m.Reason = "timeout"
				reg.Counter("harness_timeouts_total", obs.L("scheme", s.String())).Inc()
			}
			m.Stages = stagesForElapsed(stats.Stages, m.Elapsed)
			fig.Raw = append(fig.Raw, m)
			perScheme[s][lv] = append(perScheme[s][lv], m)
			if cfg.Progress != nil {
				cfg.Progress(m)
			}
		}
		pairSpan.End()
	}
	for _, s := range cqa.Schemes {
		var levels []float64
		for lv := range perScheme[s] {
			levels = append(levels, lv)
		}
		sort.Float64s(levels)
		series := Series{Scheme: s}
		for _, lv := range levels {
			ms := perScheme[s][lv]
			var sum time.Duration
			timeouts := 0
			for _, m := range ms {
				sum += m.Elapsed
				if m.TimedOut {
					timeouts++
				}
			}
			series.Points = append(series.Points, Point{
				Level:    lv,
				Mean:     sum / time.Duration(len(ms)),
				Timeouts: timeouts,
				Count:    len(ms),
			})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// runManifest builds the run's provenance record from the harness
// configuration. Front-ends (cmd/cqabench) merge their full CLI flag
// sets on top via Manifest.MergeConfig.
func runManifest(workload string, cfg Config) *manifest.RunManifest {
	names := make([]string, len(cqa.Schemes))
	for i, s := range cqa.Schemes {
		names[i] = s.String()
	}
	m := manifest.Collect("cqabench/harness", map[string]string{
		"workload": workload,
		"eps":      fmt.Sprint(cfg.Opts.Eps),
		"delta":    fmt.Sprint(cfg.Opts.Delta),
		"seed":     fmt.Sprint(cfg.Opts.Seed),
		"timeout":  cfg.Timeout.String(),
		"schemes":  strings.Join(names, ","),
	})
	return &m
}

// stagesForElapsed fits a run's span stages to the measurement's
// Elapsed so the breakdown always sums to it exactly: harness-side
// overhead goes into "other", and a timed-out run (whose Elapsed is the
// nominal timeout, not the true wall time) is rescaled proportionally.
func stagesForElapsed(stages []obs.Stage, elapsed time.Duration) []obs.Stage {
	if len(stages) == 0 || elapsed <= 0 {
		return nil
	}
	out := append([]obs.Stage(nil), stages...)
	var sum time.Duration
	for _, s := range out {
		sum += s.Dur
	}
	switch {
	case sum < elapsed:
		rest := elapsed - sum
		if last := len(out) - 1; out[last].Name == "other" {
			out[last].Dur += rest
		} else {
			out = append(out, obs.Stage{Name: "other", Dur: rest, Count: 1})
		}
	case sum > elapsed:
		var scaled time.Duration
		for i := range out {
			out[i].Dur = time.Duration(float64(out[i].Dur) * float64(elapsed) / float64(sum))
			scaled += out[i].Dur
		}
		// Rounding residue lands on the largest stage.
		maxI := 0
		for i := range out {
			if out[i].Dur > out[maxI].Dur {
				maxI = i
			}
		}
		out[maxI].Dur += elapsed - scaled
	}
	return out
}

// BalanceStats returns the average and standard deviation of the achieved
// balances, as reported in the validation figures' captions.
func (f *Figure) BalanceStats() (mean, std float64) {
	if len(f.Balances) == 0 {
		return 0, 0
	}
	for _, b := range f.Balances {
		mean += b
	}
	mean /= float64(len(f.Balances))
	for _, b := range f.Balances {
		std += (b - mean) * (b - mean)
	}
	std = math.Sqrt(std / float64(len(f.Balances)))
	return mean, std
}

// SharesAt returns each scheme's percentage share of the summed mean
// running time at the given level (the y-axis of the join figures).
func (f *Figure) SharesAt(level float64) map[cqa.Scheme]float64 {
	var total time.Duration
	perScheme := make(map[cqa.Scheme]time.Duration)
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Level == level {
				perScheme[s.Scheme] = p.Mean
				total += p.Mean
			}
		}
	}
	out := make(map[cqa.Scheme]float64, len(perScheme))
	for sch, d := range perScheme {
		if total > 0 {
			out[sch] = 100 * float64(d) / float64(total)
		}
	}
	return out
}

// Levels returns the sorted distinct x-axis levels of the figure.
func (f *Figure) Levels() []float64 {
	set := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			set[p.Level] = true
		}
	}
	var out []float64
	for lv := range set {
		out = append(out, lv)
	}
	sort.Float64s(out)
	return out
}

// Table renders the figure as an aligned text table, one row per level
// and one column per scheme — the textual analogue of the paper's plots.
// A figure on the joins axis shows each scheme's share of the running
// time, as the paper's join figures do; the others show mean runtimes,
// with "(nTO)" annotations marking timed-out pairs.
func (f *Figure) Table() string {
	if f.Axis == scenario.JoinsAxis {
		return f.shareTable()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%16s", s.Scheme)
	}
	b.WriteByte('\n')
	for _, lv := range f.Levels() {
		fmt.Fprintf(&b, "%-12.4g", lv)
		for _, s := range f.Series {
			cell := "-"
			for _, p := range s.Points {
				if p.Level == lv {
					cell = formatDuration(p.Mean)
					if p.Timeouts > 0 {
						cell += fmt.Sprintf(" (%dTO)", p.Timeouts)
					}
				}
			}
			fmt.Fprintf(&b, "%16s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// shareTable renders the join-figure view: per level, each scheme's
// share of the total running time.
func (f *Figure) shareTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (share of running time %%)\n", f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%10s", s.Scheme)
	}
	b.WriteByte('\n')
	for _, lv := range f.Levels() {
		shares := f.SharesAt(lv)
		fmt.Fprintf(&b, "%-12.4g", lv)
		for _, s := range f.Series {
			fmt.Fprintf(&b, "%9.1f%%", shares[s.Scheme])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteCSV emits the raw measurements, one row per (pair, scheme).
func (f *Figure) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "figure,pair,scheme,level,elapsed_ns,prep_ns,samples,tuples,timed_out"); err != nil {
		return err
	}
	for _, m := range f.Raw {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%g,%d,%d,%d,%d,%t\n",
			csvEscape(f.Title), csvEscape(m.Pair), m.Scheme, m.Level,
			m.Elapsed.Nanoseconds(), m.Prep.Nanoseconds(), m.Samples,
			m.Tuples, m.TimedOut); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// PrepHistogram buckets preprocessing times (Figure 3): the fraction of
// pairs whose synopsis construction fell in each bucket of the given
// width.
func PrepHistogram(times []time.Duration, bucket time.Duration) []float64 {
	if len(times) == 0 || bucket <= 0 {
		return nil
	}
	max := time.Duration(0)
	for _, t := range times {
		if t > max {
			max = t
		}
	}
	n := int(max/bucket) + 1
	hist := make([]float64, n)
	for _, t := range times {
		hist[int(t/bucket)]++
	}
	for i := range hist {
		hist[i] /= float64(len(times))
	}
	return hist
}

// Winner returns the scheme with the smallest total mean runtime across
// all levels — the "best performer" the take-home messages talk about.
func (f *Figure) Winner() cqa.Scheme {
	best := f.Series[0].Scheme
	bestTotal := time.Duration(math.MaxInt64)
	for _, s := range f.Series {
		var total time.Duration
		for _, p := range s.Points {
			total += p.Mean
		}
		if total < bestTotal {
			bestTotal = total
			best = s.Scheme
		}
	}
	return best
}
