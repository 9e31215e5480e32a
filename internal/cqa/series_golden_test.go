package cqa

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"testing"

	"cqabench/internal/estimator"
	"cqabench/internal/obs"
	"cqabench/internal/synopsis"
)

// The series golden file pins what one answer call adds to the
// estimator_* series of the default registry: the completed 𝒜𝒜 runs and
// their draws by phase, and the completed coverage walks with their steps
// and trials. It runs a set of small mixed tuples and one multi-image
// tuple through every scheme in the four tuple and sampling modes, once
// unbounded and once under a sample cap that fails the run part way.
// Regenerate (only when intentionally changing what the series count)
// with:
//
//	go test ./internal/cqa -run TestEstimatorSeriesGolden -update-series-golden
var updateSeriesGolden = flag.Bool("update-series-golden", false,
	"rewrite testdata/series_golden.json from the current implementation")

const seriesGoldenPath = "testdata/series_golden.json"

// seriesGoldenCase is one answer call of the series grid and the series
// deltas it left.
type seriesGoldenCase struct {
	Set        string           `json:"set"`
	Scheme     string           `json:"scheme"`
	Mode       string           `json:"mode"`
	MaxSamples int64            `json:"max_samples,omitempty"`
	Failed     bool             `json:"failed"`
	Deltas     map[string]int64 `json:"deltas"`
}

// estimatorSeries returns the pinned counters by the keys the golden
// file files their deltas under.
func estimatorSeries() map[string]*obs.Counter {
	r := obs.Default()
	out := map[string]*obs.Counter{
		"mc_runs":         r.Counter("estimator_mc_runs_total"),
		"coverage_runs":   r.Counter("estimator_coverage_runs_total"),
		"coverage_steps":  r.Counter("estimator_coverage_steps_total"),
		"coverage_trials": r.Counter("estimator_coverage_trials_total"),
	}
	for _, phase := range []string{"stopping", "variance", "final"} {
		out["mc_samples_"+phase] = r.Counter("estimator_mc_samples_total", obs.L("phase", phase))
	}
	return out
}

// TestEstimatorSeriesGolden locks the estimator_* series deltas of every
// call of the grid to the recorded reference. No test of this package
// runs in parallel, so the default registry moves only with the call
// under test.
func TestEstimatorSeriesGolden(t *testing.T) {
	db, q := bigBlockDB(t, 6)
	big, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	sets := []struct {
		name string
		set  *synopsis.Set
	}{
		{"many-small", manySmallSet()},
		{"big-block-6", big},
	}
	series := estimatorSeries()
	var got []seriesGoldenCase
	for _, s := range sets {
		for _, scheme := range Schemes {
			for _, m := range fourModes {
				// 1000 draws stop many-small's KL, KLM and Cover after a few
				// tuples of the sequential loop and every scheme's pool
				// after a few dozen, and every scheme but Natural on
				// big-block-6.
				for _, maxSamples := range []int64{0, 1000} {
					opts := Options{Eps: 0.25, Delta: 0.3, Seed: 7,
						Budget:          estimator.Budget{MaxSamples: maxSamples},
						SamplingWorkers: m.samplingWorkers,
						TupleWorkers:    m.tupleWorkers}
					before := make(map[string]int64, len(series))
					for k, c := range series {
						before[k] = c.Value()
					}
					_, _, err := ApxAnswersFromSetContext(context.Background(), s.set, scheme, opts)
					if err != nil && !errors.Is(err, estimator.ErrBudget) {
						t.Fatalf("%s/%s/%s max=%d: %v", s.name, scheme, m.name, maxSamples, err)
					}
					c := seriesGoldenCase{Set: s.name, Scheme: scheme.String(), Mode: m.name,
						MaxSamples: maxSamples, Failed: err != nil, Deltas: map[string]int64{}}
					for k, ctr := range series {
						c.Deltas[k] = ctr.Value() - before[k]
					}
					got = append(got, c)
				}
			}
		}
	}
	if *updateSeriesGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seriesGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d series golden cases to %s", len(got), seriesGoldenPath)
		return
	}
	raw, err := os.ReadFile(seriesGoldenPath)
	if err != nil {
		t.Fatalf("missing series golden file (run with -update-series-golden to create): %v", err)
	}
	var want []seriesGoldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("series golden grid size changed: have %d cases, golden holds %d", len(got), len(want))
	}
	for i := range want {
		gj, _ := json.Marshal(got[i])
		wj, _ := json.Marshal(want[i])
		if string(gj) != string(wj) {
			t.Errorf("case %d:\n  want %s\n  got  %s", i, wj, gj)
		}
	}
}
