package cqabench_test

import (
	"testing"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/harness"
	"cqabench/internal/scenario"
)

// These tests assert the paper's take-home messages (Section 7.2) hold on
// the scaled-down scenarios: they are the repository's headline
// reproduction, run as part of the ordinary test suite. They are skipped
// under -short.

func experimentLab(t *testing.T) *scenario.Lab {
	t.Helper()
	cfg := scenario.DefaultConfig()
	cfg.ScaleFactor = 0.0002
	cfg.QueriesPerJoin = 1
	cfg.DQGIterations = 30
	l, err := scenario.NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func experimentConfig() harness.Config {
	return harness.Config{
		Opts:    cqa.Options{Eps: 0.2, Delta: 0.3, Seed: 5489},
		Timeout: 8 * time.Second,
	}
}

// Take-home message (1): for Boolean CQs, Natural is the best performer,
// no matter the amount of noise and the number of joins. A cell is one
// wall-clock timing, so each figure runs three times and every scheme is
// ranked by the sum of its per-cell minima: one scheduler pause in one
// run cannot decide the ranking.
func TestTakeHome1_NaturalWinsBooleanQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("headline experiment; skipped in -short mode")
	}
	l := experimentLab(t)
	for _, joins := range []int{1, 3} {
		w, err := l.NoiseScenario(0, joins, []float64{0.2, 0.6, 1.0})
		if err != nil {
			t.Fatal(err)
		}
		figs := make([]*harness.Figure, 3)
		for i := range figs {
			if figs[i], err = harness.Run(w, experimentConfig()); err != nil {
				t.Fatal(err)
			}
		}
		// Keep each cell's fastest run in figs[0], then rank as usual.
		fig := figs[0]
		for _, f := range figs[1:] {
			for i, ser := range f.Series {
				for j, p := range ser.Points {
					cell := &fig.Series[i].Points[j]
					cell.Mean = min(cell.Mean, p.Mean)
				}
			}
		}
		if winner := fig.Winner(); winner != cqa.Natural {
			t.Errorf("joins=%d: Boolean winner = %v, want Natural (per-cell minima of 3 runs)\n%s", joins, winner, fig.Table())
		}
	}
}

// Take-home message (2): for non-Boolean CQs, KLM (or KL) leads and
// Natural is the slowest among the Monte Carlo schemes.
func TestTakeHome2_KLMWinsNonBooleanQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("headline experiment; skipped in -short mode")
	}
	l := experimentLab(t)
	w, err := l.NoiseScenario(0.5, 3, []float64{0.2, 0.6, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	fig, err := harness.Run(w, experimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	natural := totalMean(fig, cqa.Natural)
	kl := totalMean(fig, cqa.KL)
	klm := totalMean(fig, cqa.KLM)
	if klm >= natural && kl >= natural {
		t.Errorf("non-Boolean: Natural (%v) not slower than KL (%v) and KLM (%v)\n%s",
			natural, kl, klm, fig.Table())
	}
	if winner := fig.Winner(); winner == cqa.Natural {
		t.Errorf("non-Boolean winner = Natural, expected a symbolic scheme\n%s", fig.Table())
	}
}

// Take-home message (3): the preprocessing step is not prohibitive — on
// the scaled scenarios every synopsis set builds well within the per-pair
// budget (the paper: under 30s for 80% of full-scale pairs; our scale is
// ~1000x smaller).
func TestTakeHome3_PreprocessingIsCheap(t *testing.T) {
	if testing.Short() {
		t.Skip("headline experiment; skipped in -short mode")
	}
	l := experimentLab(t)
	w, err := l.BalanceScenario(0.6, 3, []float64{0, 0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	fig, err := harness.Run(w, experimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, prep := range fig.PrepTimes {
		if prep > 5*time.Second {
			t.Errorf("pair %d: preprocessing took %v", i, prep)
		}
	}
}

// The validation scenarios (Appendix F) confirm take-home (1) on workload
// queries: a low-balance template behaves like a Boolean query, so
// Natural must win it.
func TestValidationConfirmsTakeHome1(t *testing.T) {
	if testing.Short() {
		t.Skip("headline experiment; skipped in -short mode")
	}
	// experimentLab's base database, as cqabench validate generates it.
	base, err := scenario.GenerateDB("tpch", 0.0002, 1)
	if err != nil {
		t.Fatal(err)
	}
	var vq scenario.ValidationQuery
	for _, cand := range scenario.TPCHValidationQueries() {
		if cand.TemplateID == 12 {
			vq = cand
		}
	}
	w, err := scenario.ValidationScenario(base, vq, []float64{0.2, 0.6}, 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := harness.Run(w, experimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := fig.BalanceStats()
	if mean > 0.1 {
		t.Fatalf("Q12_H balance %v unexpectedly high; pick a different template", mean)
	}
	if winner := fig.Winner(); winner != cqa.Natural {
		t.Errorf("low-balance validation winner = %v, want Natural\n%s", winner, fig.Table())
	}
}

// totalMean returns a scheme's summed mean runtime across levels, 0 for
// a scheme the figure does not hold.
func totalMean(f *harness.Figure, s cqa.Scheme) time.Duration {
	var total time.Duration
	for _, ser := range f.Series {
		if ser.Scheme == s {
			for _, p := range ser.Points {
				total += p.Mean
			}
		}
	}
	return total
}
