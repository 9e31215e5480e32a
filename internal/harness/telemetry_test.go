package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/estimator"
	"cqabench/internal/obs"
	"cqabench/internal/scenario"
)

func telemetryWorkload(t *testing.T) *scenario.Workload {
	t.Helper()
	cfg := scenario.DefaultConfig()
	cfg.ScaleFactor = 0.0002
	cfg.QueriesPerJoin = 1
	lab, err := scenario.NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := lab.NoiseScenario(0, 1, []float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTimedOutMeasurementsAreZeroed checks the timeout accounting: a
// timed-out (pair, scheme) run must not leak the partial sample/prep
// counts of the aborted invocation, must carry the "timeout" reason, and
// must be counted in harness_timeouts_total.
func TestTimedOutMeasurementsAreZeroed(t *testing.T) {
	w := telemetryWorkload(t)
	reg := obs.Default()
	var before int64
	for _, s := range cqa.Schemes {
		before += reg.Counter("harness_timeouts_total", obs.L("scheme", s.String())).Value()
	}
	cfg := Config{Opts: cqa.DefaultOptions(), Timeout: time.Second}
	cfg.Opts.Budget.MaxSamples = 10 // force budget exhaustion for every scheme
	fig, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var timeouts int64
	for _, m := range fig.Raw {
		if !m.TimedOut {
			continue
		}
		timeouts++
		if m.Samples != 0 {
			t.Errorf("%s/%s: timed-out measurement reports %d samples, want 0", m.Pair, m.Scheme, m.Samples)
		}
		if m.Prep != 0 {
			t.Errorf("%s/%s: timed-out measurement reports prep %v, want 0", m.Pair, m.Scheme, m.Prep)
		}
		if m.Reason != "timeout" {
			t.Errorf("%s/%s: reason %q, want %q", m.Pair, m.Scheme, m.Reason, "timeout")
		}
		if m.Elapsed != cfg.Timeout {
			t.Errorf("%s/%s: elapsed %v, want the timeout %v", m.Pair, m.Scheme, m.Elapsed, cfg.Timeout)
		}
	}
	if timeouts == 0 {
		t.Fatal("expected at least one timed-out measurement with MaxSamples=10")
	}
	var after int64
	for _, s := range cqa.Schemes {
		after += reg.Counter("harness_timeouts_total", obs.L("scheme", s.String())).Value()
	}
	if after-before != timeouts {
		t.Errorf("harness_timeouts_total advanced by %d, want %d", after-before, timeouts)
	}
}

// TestCellTimeoutStopsEveryCell: a per-cell Timeout that passes before
// any draw marks every (pair, scheme) cell timed out, with the "timeout"
// reason and no samples, and counts each one in harness_timeouts_total.
func TestCellTimeoutStopsEveryCell(t *testing.T) {
	w := telemetryWorkload(t)
	reg := obs.Default()
	timeouts := func() (n int64) {
		for _, s := range cqa.Schemes {
			n += reg.Counter("harness_timeouts_total", obs.L("scheme", s.String())).Value()
		}
		return n
	}
	before := timeouts()
	fig, err := Run(w, Config{Opts: cqa.DefaultOptions(), Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(w.Pairs) * len(cqa.Schemes); len(fig.Raw) != want {
		t.Fatalf("%d measurements, want %d", len(fig.Raw), want)
	}
	for _, m := range fig.Raw {
		if !m.TimedOut || m.Reason != "timeout" || m.Samples != 0 {
			t.Errorf("%s/%s: timed out %v, reason %q, %d samples; want a timeout with no samples",
				m.Pair, m.Scheme, m.TimedOut, m.Reason, m.Samples)
		}
	}
	if got := timeouts() - before; got != int64(len(fig.Raw)) {
		t.Errorf("harness_timeouts_total advanced by %d, want %d", got, len(fig.Raw))
	}
}

// TestRunContextCanceledMidRun: canceling Config.Context after the first
// measurement fails Run with ErrCanceled. A per-cell Timeout does not turn
// the abort into a timed-out cell.
func TestRunContextCanceledMidRun(t *testing.T) {
	w := telemetryWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := fastConfig()
	cfg.Context = ctx
	measured := 0
	cfg.Progress = func(Measurement) {
		measured++
		cancel()
	}
	if _, err := Run(w, cfg); !errors.Is(err, estimator.ErrCanceled) {
		t.Fatalf("Run after cancel: err = %v, want ErrCanceled", err)
	}
	if measured != 1 {
		t.Fatalf("%d measurements reported, want 1 before the abort", measured)
	}
}

// TestRunManifestAndTracePlumbing checks the provenance/trace layer: Run
// populates Figure.Manifest, the figure JSON embeds it, and a Trace span
// handed in via Config captures one pair span per pair with synopsis and
// scheme children.
func TestRunManifestAndTracePlumbing(t *testing.T) {
	w := telemetryWorkload(t)
	cfg := Config{Opts: cqa.DefaultOptions(), Timeout: 5 * time.Second}
	root := obs.NewSpan("test.run")
	cfg.Trace = root
	fig, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	m := fig.Manifest
	if m == nil {
		t.Fatal("Run did not populate Figure.Manifest")
	}
	if m.GoVersion == "" || m.GOMAXPROCS <= 0 || m.Start.IsZero() {
		t.Errorf("manifest environment fields missing: %+v", m)
	}
	for _, k := range []string{"eps", "delta", "seed", "timeout", "workload", "schemes"} {
		if m.Config[k] == "" {
			t.Errorf("manifest config lacks %q: %v", k, m.Config)
		}
	}

	var buf bytes.Buffer
	if err := fig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Manifest *struct {
			GoVersion string            `json:"go_version"`
			Config    map[string]string `json:"config"`
		} `json:"manifest"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Manifest == nil || decoded.Manifest.GoVersion == "" || decoded.Manifest.Config["eps"] == "" {
		t.Errorf("figure JSON manifest not populated: %+v", decoded.Manifest)
	}

	data := root.Data()
	if len(data.Children) != len(w.Pairs) {
		t.Fatalf("trace has %d pair spans, want %d", len(data.Children), len(w.Pairs))
	}
	for _, pairSpan := range data.Children {
		names := map[string]int{}
		for _, c := range pairSpan.Children {
			names[c.Name]++
		}
		if names["synopsis.build"] != 1 {
			t.Errorf("pair span %q: synopsis.build count %d, want 1", pairSpan.Name, names["synopsis.build"])
		}
		for _, s := range cqa.Schemes {
			if names["cqa."+s.String()] != 1 {
				t.Errorf("pair span %q: missing cqa.%s child (%v)", pairSpan.Name, s, names)
			}
		}
		if pairSpan.End.After(data.End) {
			t.Errorf("pair span %q extends past the root", pairSpan.Name)
		}
	}
}

// TestStagesSumToElapsed checks the span-breakdown invariant the JSON
// report relies on: every measurement's stage durations sum to Elapsed
// exactly (the acceptance bound is 5%; the construction makes it 0).
func TestStagesSumToElapsed(t *testing.T) {
	w := telemetryWorkload(t)
	cfg := Config{Opts: cqa.DefaultOptions(), Timeout: 5 * time.Second}
	var progressed int
	cfg.Progress = func(Measurement) { progressed++ }
	fig, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if progressed != len(fig.Raw) {
		t.Errorf("Progress called %d times, want %d", progressed, len(fig.Raw))
	}
	for _, m := range fig.Raw {
		if len(m.Stages) == 0 {
			t.Errorf("%s/%s: no stages", m.Pair, m.Scheme)
			continue
		}
		var sum time.Duration
		for _, s := range m.Stages {
			if s.Dur < 0 {
				t.Errorf("%s/%s: stage %s has negative duration", m.Pair, m.Scheme, s.Name)
			}
			sum += s.Dur
		}
		if sum != m.Elapsed {
			t.Errorf("%s/%s: stages sum to %v, elapsed %v", m.Pair, m.Scheme, sum, m.Elapsed)
		}
	}
}
