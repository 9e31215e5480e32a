package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/harness"
	"cqabench/internal/obs"
	"cqabench/internal/obs/manifest"
	"cqabench/internal/obs/trace"
	"cqabench/internal/scenario"
	"cqabench/internal/synopsis"
)

// figureFamilies maps the ids of the figures that measure a scenario
// family to the family's axis.
var figureFamilies = map[int]scenario.Axis{1: scenario.NoiseAxis, 2: scenario.BalanceAxis, 4: scenario.JoinsAxis}

// cmdFigure regenerates one of the paper's Figures 1-4. Figures 1, 2
// and 4 measure a scenario family end to end and print the figure's
// table; they can expose live metrics over HTTP (-metrics-addr), stream
// per-measurement progress (-progress), and write the raw measurements
// (-csv), the figure (-json), a metrics snapshot (-metrics-out) and, with
// -trace-out, the run's span tree as a Perfetto-loadable Chrome trace
// plus a JSONL event journal. Every artifact carries the run's
// provenance manifest. Figure 3 is the preprocessing-time distribution.
// A flag the chosen figure would ignore is an error (checkFigureFlags).
func cmdFigure(args []string) error {
	fs := flag.NewFlagSet("figure", flag.ContinueOnError)
	id := fs.Int("id", 1, "figure: 1=noise 2=balance 3=preprocessing 4=joins (Figure 5 is validate, Figures 6-13 are grid)")
	sf := fs.Float64("sf", 0.0005, "TPC-H scale factor")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	timeout := fs.Duration("timeout", 10*time.Second, "per (pair, scheme) timeout")
	eps := fs.Float64("eps", 0.1, "relative error")
	delta := fs.Float64("delta", 0.25, "failure probability")
	queries := fs.Int("queries", 2, "queries per join level")
	csvPath := fs.String("csv", "", "write raw measurements as CSV")
	jsonPath := fs.String("json", "", "write the figure (with raw span breakdowns) as JSON")
	chart := fs.Bool("chart", false, "also render an ASCII chart")
	balance := fs.Float64("balance", 0, "fixed balance (figures 1, 4)")
	noisep := fs.Float64("noise", 0.5, "fixed noise (figures 2, 4)")
	joins := fs.Int("joins", 1, "fixed join level (figures 1, 2)")
	levelsFlag := fs.String("levels", "", "comma-separated x-axis levels (defaults per figure)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /metrics.json, expvar and pprof on this address (e.g. :9090)")
	progress := fs.Bool("progress", false, "stream per-(pair, scheme) progress lines to stderr")
	metricsOut := fs.String("metrics-out", "", "write the final metrics snapshot here (empty = skip)")
	traceOut := fs.String("trace-out", "", "write the run's span tree as Chrome Trace Event JSON here (plus a .jsonl journal next to it)")
	logFormat := fs.String("log-format", "text", "progress/status log format: text or json")
	hold := fs.Duration("hold", 0, "keep serving -metrics-addr for this long after the run")
	openCache := cacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkFigureFlags(*id, setFlags(fs)); err != nil {
		return err
	}

	logger, err := newLogger(*logFormat)
	if err != nil {
		return err
	}
	axis := figureFamilies[*id]
	def := familyLevels[axis]
	if *id == 3 {
		def = "0.2,0.6,1.0"
	}
	levels, err := parseLevels("levels", defaultStr(*levelsFlag, def))
	if err != nil {
		return err
	}
	cache, err := openCache()
	if err != nil {
		return err
	}

	closeMetrics, err := serveMetricsIfRequested(*metricsAddr, logger)
	if err != nil {
		return err
	}
	defer closeMetrics()

	labCfg := scenario.DefaultConfig()
	labCfg.ScaleFactor = *sf
	labCfg.Seed = *seed
	labCfg.QueriesPerJoin = *queries
	lab, err := scenario.NewLab(labCfg)
	if err != nil {
		return err
	}
	if *id == 3 {
		return figurePreprocess(lab, levels)
	}
	w, err := buildWorkload(lab, axis, *balance, *noisep, *joins, levels)
	if err != nil {
		return err
	}

	// Ctrl-C aborts the run cooperatively: the estimators observe the
	// signal context at their chunk boundaries and the harness surfaces
	// a canceled error instead of dying mid-measurement.
	runCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	hcfg := harness.Config{
		Opts:    cqa.Options{Eps: *eps, Delta: *delta, Seed: 5489},
		Timeout: *timeout,
		Cache:   cache,
		Context: runCtx,
	}
	if *progress {
		hcfg.Progress = progressPrinter(logger)
	}
	var traceRoot *obs.Span
	if *traceOut != "" {
		traceRoot = obs.NewSpan("cqabench.figure")
		hcfg.Trace = traceRoot
	}

	fig, err := harness.Run(w, hcfg)
	if err != nil {
		return err
	}
	fmt.Print(fig.Table())
	if *chart {
		fmt.Print(fig.Chart(72, 16))
	}

	var totalPrep time.Duration
	for _, p := range fig.PrepTimes {
		totalPrep += p
	}
	logger.Info("synopsis prep", "pairs", len(fig.PrepTimes), "total", totalPrep.Round(time.Microsecond).String())
	logCacheSummary(logger, cache)
	fmt.Print(fig.CrossoverSummary())

	// The harness filled the manifest's environment and harness config;
	// layer the full CLI flag set and tool name on top.
	fig.Manifest.Tool = "cqabench figure"
	fig.Manifest.MergeConfig(manifest.FlagConfig(fs))

	if *csvPath != "" {
		if err := writeFile(*csvPath, fig.WriteCSV); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, fig.WriteJSON); err != nil {
			return err
		}
	}
	if traceRoot != nil {
		traceRoot.End()
		journalPath, err := writeTraceFiles(*traceOut, fig.Manifest, traceRoot)
		if err != nil {
			return err
		}
		logger.Info("wrote trace", "chrome", *traceOut, "journal", journalPath)
	}
	if *metricsOut != "" {
		if err := writeMetricsSnapshot(*metricsOut, fig.Manifest); err != nil {
			return err
		}
		logger.Info("wrote metrics snapshot", "path", *metricsOut)
	}
	if *metricsAddr != "" && *hold > 0 {
		logger.Info("holding metrics endpoint", "for", hold.String())
		time.Sleep(*hold)
	}
	return nil
}

// prepFlags are the only flags Figure 3 reads: it builds synopses and
// times nothing else.
var prepFlags = []string{"id", "sf", "seed", "queries", "levels"}

// flagNeeds maps a flag, in any subcommand, to the flag without which
// it does nothing.
var flagNeeds = map[string]string{"hold": "metrics-addr", "cache": "cache-dir",
	"explain": "query", "dqg-iterations": "balances"}

// checkFigureFlags rejects a figure id that figure does not make and
// any flag in set (the names given on the command line) that figure id
// would ignore: for Figures 1, 2 and 4 the flag that would fix the
// parameter their x-axis sweeps, for Figure 3 every flag but prepFlags,
// and a flag of flagNeeds without the flag it needs. It reads nothing
// but its arguments, so a recorded command line can be checked without
// running it.
func checkFigureFlags(id int, set []string) error {
	if id == 5 {
		return fmt.Errorf("figure 5 is made by validate: cqabench validate -benchmark tpch (or tpcds)")
	}
	axis, measured := figureFamilies[id]
	if !measured && id != 3 {
		return fmt.Errorf("unknown figure id %d (figure makes 1-4; Figure 5 is validate, Figures 6-13 are grid)", id)
	}
	if err := checkSweptFlag(fmt.Sprintf("figure -id %d", id), axis, set); err != nil {
		return err
	}
	for _, name := range set {
		if id == 3 && !slices.Contains(prepFlags, name) {
			return fmt.Errorf("figure -id 3 does not use -%s (it reads only -sf, -seed, -queries and -levels)", name)
		}
	}
	return checkFlagUse("figure", set)
}

// checkFlagUse rejects a flag in set (the names given on the command
// line) that mode ignores, or that does nothing without the flag
// flagNeeds names for it.
func checkFlagUse(mode string, set []string, ignored ...string) error {
	for _, name := range set {
		if slices.Contains(ignored, name) {
			return fmt.Errorf("%s does not use -%s", mode, name)
		}
		if need, ok := flagNeeds[name]; ok && !slices.Contains(set, need) {
			return fmt.Errorf("-%s needs -%s", name, need)
		}
	}
	return nil
}

// checkSweptFlag rejects the flag in set that would fix the parameter
// the family of cmd sweeps along its x-axis: the family ignores it.
func checkSweptFlag(cmd string, axis scenario.Axis, set []string) error {
	if slices.Contains(set, string(axis)) {
		return fmt.Errorf("%s sweeps %s along its x-axis, so -%s does not apply (set -levels)", cmd, axis, axis)
	}
	return nil
}

// setFlags returns the names of the flags given on fs's command line.
func setFlags(fs *flag.FlagSet) []string {
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	return set
}

// buildWorkload builds the workload of the scenario family that sweeps
// axis over levels, with the other two parameters fixed.
func buildWorkload(lab *scenario.Lab, axis scenario.Axis, balance, noisep float64, joins int, levels []float64) (*scenario.Workload, error) {
	switch axis {
	case scenario.NoiseAxis:
		return lab.NoiseScenario(balance, joins, levels)
	case scenario.BalanceAxis:
		return lab.BalanceScenario(noisep, joins, levels)
	case scenario.JoinsAxis:
		return lab.JoinsScenario(noisep, balance, joinCounts(levels))
	}
	return nil, fmt.Errorf("unknown family %q (want noise, balance or joins)", axis)
}

// figurePreprocess reproduces Figure 3: the distribution of the synopsis
// construction time over a grid of database-query pairs.
func figurePreprocess(lab *scenario.Lab, noiseLevels []float64) error {
	var times []time.Duration
	for _, j := range []int{1, 2, 3} {
		for _, p := range noiseLevels {
			db, err := lab.NoisyDB(j, 0, p)
			if err != nil {
				return err
			}
			q, err := lab.BaseQuery(j, 0)
			if err != nil {
				return err
			}
			start := time.Now()
			if _, err := synopsis.Build(db, q); err != nil {
				return err
			}
			times = append(times, time.Since(start))
		}
	}
	bucket := 5 * time.Millisecond
	hist := harness.PrepHistogram(times, bucket)
	fmt.Println("Preprocessing time distribution")
	for i, h := range hist {
		if h == 0 {
			continue
		}
		fmt.Printf("%6s-%6s  %5.1f%%  %s\n",
			time.Duration(i)*bucket, time.Duration(i+1)*bucket, h*100,
			strings.Repeat("#", int(h*50)))
	}
	return nil
}

// progressPrinter returns a harness progress callback that logs one line
// per (pair, scheme) measurement, with cumulative sample and timeout
// totals read back from the obs counters.
func progressPrinter(logger *slog.Logger) func(harness.Measurement) {
	reg := obs.Default()
	start := time.Now()
	n := 0
	return func(m harness.Measurement) {
		n++
		var samples, timeouts int64
		for _, s := range cqa.Schemes {
			lbl := obs.L("scheme", s.String())
			samples += reg.Counter("sampler_samples_total", lbl).Value()
			timeouts += reg.Counter("harness_timeouts_total", lbl).Value()
		}
		attrs := []any{
			"t", time.Since(start).Round(100 * time.Millisecond).String(),
			"n", n,
			"pair", m.Pair,
			"scheme", m.Scheme.String(),
			"level", m.Level,
			"elapsed", m.Elapsed.Round(time.Microsecond).String(),
			"samples", m.Samples,
			"total_samples", samples,
			"total_timeouts", timeouts,
		}
		if m.Reason != "" {
			attrs = append(attrs, "reason", m.Reason)
		}
		logger.Info("measurement", attrs...)
	}
}

// writeTraceFiles persists a finished span tree under path: Chrome Trace
// Event JSON at path itself and the JSONL event journal next to it
// (extension swapped for .jsonl). Both embed the manifest. Returns the
// journal path.
func writeTraceFiles(path string, m *manifest.RunManifest, root *obs.Span) (string, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	data := root.Data()
	err := writeFile(path, func(w io.Writer) error {
		return trace.WriteChrome(w, m, []obs.SpanData{data})
	})
	if err != nil {
		return "", err
	}
	journalPath := strings.TrimSuffix(path, filepath.Ext(path)) + ".jsonl"
	err = writeFile(journalPath, func(w io.Writer) error {
		return trace.WriteJournal(w, m, []obs.SpanData{data})
	})
	return journalPath, err
}

// writeMetricsSnapshot dumps the default registry as JSON wrapped in a
// provenance envelope ({"manifest": ..., "metrics": ...}), creating the
// target directory if needed.
func writeMetricsSnapshot(path string, m *manifest.RunManifest) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	if err := obs.Default().WriteJSON(&buf); err != nil {
		return err
	}
	envelope := struct {
		Manifest *manifest.RunManifest `json:"manifest,omitempty"`
		Metrics  json.RawMessage       `json:"metrics"`
	}{Manifest: m, Metrics: buf.Bytes()}
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(envelope)
	})
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveMetricsIfRequested starts the metrics endpoint when addr is
// non-empty and returns a closer (a no-op closer otherwise).
func serveMetricsIfRequested(addr string, logger *slog.Logger) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	srv, bound, err := obs.Serve(addr)
	if err != nil {
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	logger.Info("serving metrics", "url", "http://"+bound+"/metrics")
	return func() { srv.Close() }, nil
}
