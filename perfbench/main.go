// Command perfbench is the repository's benchmark. It drives one of
// three workloads from outside the library and prints, as the last line
// of its standard output, one JSON object:
//
//	{"correct": true, "attempted": 72, "failed": 0, "metrics": {"op_ms": {"value": 89.4, "unit": "ms"}, ...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) times the calls into each layer's public functions
// and reports the per-layer metrics. Every workload reports every
// metric of its mode. BENCHMARK.json at the repository root declares
// both sets, and README.md in this directory documents the workloads
// and the layer-to-metric map.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload boolean-wide --seed 1 --seconds 8 --trace 0
//
// The run's work is a fixed function of (workload, seed, seconds): the
// seconds size the op list on the reference host, they do not bound a
// loop. Every run checks the outputs and writes a result file (and, when
// traced, a Chrome trace and a JSONL journal) with the run manifest
// under --out. It exits 1 when an output check or an input pin fails
// and 2 on a usage or set-up error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"cqabench/internal/obs"
	"cqabench/internal/obs/manifest"
	"cqabench/internal/obs/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloadNames lists the workloads in documentation order. The first
// gatedWorkloads are BENCHMARK.json's; serve-mixed runs the same way and
// reports the same metrics, but its op_ms is too unsteady on the
// reference host to gate a change (see README.md).
var workloadNames = []string{"boolean-wide", "many-tuples", "serve-mixed"}

const gatedWorkloads = 2

// runConfig is what the command line selects.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	outDir   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed: picks the per-op estimator seeds and the request order")
	seconds := fs.Int("seconds", 8, "run length on the reference host (2 vCPUs); sizes the fixed op list")
	traceFlag := fs.Int("trace", 0, "1 runs the traced, layer-by-layer variant")
	outDir := fs.String("out", ".bench_build", "directory for result and trace files")
	writeInputs := fs.Bool("write-inputs", false, "regenerate the pinned inputs (inputs.json) on stdout and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeInputs {
		if err := writePinnedInputs(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, outDir: *outDir}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(stderr, "perfbench: --trace %d (want 0 or 1)\n", *traceFlag)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds %d (want ≥ 1)\n", *seconds)
		return 2
	}

	r := newRun(cfg)
	var err error
	switch cfg.workload {
	case "boolean-wide", "many-tuples":
		err = runLibrary(r, libSpecs[cfg.workload])
	case "serve-mixed":
		err = runServe(r)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if errors.Is(err, errPin) {
			return 1
		}
		return 2
	}
	return r.finish(stdout, stderr)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxProblems bounds how many failed checks a run keeps verbatim.
const maxProblems = 20

// runState accumulates one run's metrics, checks and trace.
type runState struct {
	cfg       runConfig
	root      *obs.Span // nil when untraced
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string       // failed checks, the first maxProblems
	details   map[string]any // extra data for the result file
	lines     []string       // human-readable summary, printed before the JSON line
}

func newRun(cfg runConfig) *runState {
	r := &runState{cfg: cfg, metrics: map[string]metric{}, details: map[string]any{}}
	if cfg.traced {
		r.root = obs.NewSpan("perfbench." + cfg.workload)
	}
	return r
}

// set records a metric; its unit comes from the units table.
func (r *runState) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// JSON has no NaN or infinity. A median over failed requests is
		// infinite; the run is then incorrect anyway.
		r.problem("metric %s is %v", name, v)
		v = math.MaxFloat64
	}
	r.metrics[name] = metric{Value: v, Unit: u}
}

// problem records a failed check without counting a failed op.
func (r *runState) problem(format string, args ...any) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// opFailed counts a failed op and records why.
func (r *runState) opFailed(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

func (r *runState) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// finish writes the result (and trace) files, prints the summary and
// the JSON line, and returns the exit code.
func (r *runState) finish(stdout, stderr io.Writer) int {
	r.set("peak_rss_mb", peakRSSMB())
	for name := range r.metrics {
		// An untraced run reports the end-to-end metrics, a traced run
		// the per-layer ones.
		if endToEnd[name] == r.cfg.traced {
			delete(r.metrics, name)
		}
	}
	for name := range units {
		if _, ok := r.metrics[name]; !ok && endToEnd[name] != r.cfg.traced {
			r.problem("metric %s was not measured", name)
		}
	}
	res := result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	man := manifest.Collect("perfbench", map[string]string{
		"workload": r.cfg.workload,
		"seed":     strconv.FormatUint(r.cfg.seed, 10),
		"seconds":  strconv.Itoa(r.cfg.seconds),
		"trace":    strconv.FormatBool(r.cfg.traced),
		"nproc":    strconv.Itoa(runtime.NumCPU()),
	})
	base := filepath.Join(r.cfg.outDir, "results", fmt.Sprintf("%s-seed%d-trace%d", r.cfg.workload, r.cfg.seed, boolInt(r.cfg.traced)))
	if err := r.writeFiles(base, man, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, l := range r.lines {
		fmt.Fprintln(stdout, l)
	}
	for _, p := range r.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "ops attempted %d, failed %d; result file %s.json\n", r.attempted, r.failed, base)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeFiles writes <base>.json (manifest, result, details, failed
// checks) and, for a traced run, <base>.trace.json and
// <base>.trace.jsonl from the run's span tree.
func (r *runState) writeFiles(base string, man manifest.RunManifest, res result) error {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	doc := map[string]any{"manifest": man, "result": res, "details": r.details, "problems": r.problems}
	if err := writeFile(base+".json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(doc)
	}); err != nil {
		return err
	}
	if r.root == nil {
		return nil
	}
	r.root.End()
	roots := []obs.SpanData{r.root.Data()}
	if err := writeFile(base+".trace.json", func(w io.Writer) error { return trace.WriteChrome(w, man, roots) }); err != nil {
		return err
	}
	return writeFile(base+".trace.jsonl", func(w io.Writer) error { return trace.WriteJournal(w, man, roots) })
}

// writeFile creates path and fills it through a buffer with write,
// checking every error on the way to a closed file.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB;
// NaN where /proc does not report it, which fails the run.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
