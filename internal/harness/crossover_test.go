package harness

import (
	"strings"
	"testing"
	"time"

	"cqabench/internal/cqa"
)

// crossoverFigure: Natural fast then slow, KLM the reverse — the Figure 2
// shape.
func crossoverFigure() *Figure {
	return &Figure{
		Title:  "Balance[0.4, 1]",
		XLabel: "Balance (%)",
		Series: []Series{
			{Scheme: cqa.Natural, Points: []Point{
				{Level: 0, Mean: 4 * time.Millisecond},
				{Level: 25, Mean: 15 * time.Millisecond},
				{Level: 50, Mean: 450 * time.Millisecond},
				{Level: 100, Mean: 1500 * time.Millisecond},
			}},
			{Scheme: cqa.KLM, Points: []Point{
				{Level: 0, Mean: 5 * time.Second},
				{Level: 25, Mean: 6 * time.Second},
				{Level: 50, Mean: 90 * time.Millisecond},
				{Level: 100, Mean: 110 * time.Millisecond},
			}},
		},
	}
}

func TestCrossoverDetected(t *testing.T) {
	fig := crossoverFigure()
	lv, ok := fig.Crossover(cqa.Natural, cqa.KLM)
	if !ok {
		t.Fatal("crossover not found")
	}
	if lv != 50 {
		t.Fatalf("crossover at %v, want 50", lv)
	}
}

func TestCrossoverAbsentWhenDominated(t *testing.T) {
	fig := crossoverFigure()
	// KLM never gets overtaken back by Natural after leading... Natural
	// leads first, so Crossover(KLM, Natural) needs KLM to lead at some
	// level before Natural drops below it: KLM never leads before level
	// 50, and after 50 Natural never beats it again.
	if _, ok := fig.Crossover(cqa.KLM, cqa.Natural); ok {
		t.Fatal("phantom crossover")
	}
	// Unknown schemes.
	if _, ok := fig.Crossover(cqa.Cover, cqa.KL); ok {
		t.Fatal("crossover for absent series")
	}
}

func TestCrossoverSummary(t *testing.T) {
	fig := crossoverFigure()
	s := fig.CrossoverSummary()
	if !strings.Contains(s, "KLM overtakes Natural at Balance (%) 50") {
		t.Fatalf("summary:\n%s", s)
	}
	flat := &Figure{Series: []Series{{Scheme: cqa.KL, Points: []Point{{Level: 1, Mean: time.Second}}}}}
	if !strings.Contains(flat.CrossoverSummary(), "no crossovers") {
		t.Fatal("flat summary wrong")
	}
}

// End-to-end: the balance-scenario crossover the paper's Figure 2 shows
// must be detected on real measurements.
func TestCrossoverOnRealBalanceScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full scenario")
	}
	l := testLab(t)
	w, err := l.BalanceScenario(0.5, 1, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Timeout = 6 * time.Second
	fig, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lv, ok := fig.Crossover(cqa.Natural, cqa.KLM)
	if !ok {
		t.Fatalf("no Natural→KLM crossover detected:\n%s", fig.Table())
	}
	if lv <= 0 || lv > 100 {
		t.Fatalf("crossover at %v", lv)
	}
}
