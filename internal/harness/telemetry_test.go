package harness

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"cqabench/internal/cqa"
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
	cfg := DefaultConfig()
	cfg.Timeout = time.Second
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

// TestRunManifestAndTracePlumbing checks the provenance/trace layer: Run
// populates Figure.Manifest, the figure JSON embeds it, and a Trace span
// handed in via Config captures one pair span per pair with synopsis and
// scheme children.
func TestRunManifestAndTracePlumbing(t *testing.T) {
	w := telemetryWorkload(t)
	cfg := DefaultConfig()
	cfg.Timeout = 5 * time.Second
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
	cfg := DefaultConfig()
	cfg.Timeout = 5 * time.Second
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
