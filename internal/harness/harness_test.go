package harness

import (
	"strings"
	"testing"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/scenario"
)

func testLab(t *testing.T) *scenario.Lab {
	t.Helper()
	cfg := scenario.DefaultConfig()
	cfg.ScaleFactor = 0.0002
	cfg.QueriesPerJoin = 1
	cfg.DQGIterations = 20
	l, err := scenario.NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func fastConfig() Config {
	cfg := Config{Opts: cqa.DefaultOptions(), Timeout: 5 * time.Second}
	cfg.Opts.Eps = 0.25
	cfg.Opts.Delta = 0.3
	return cfg
}

func TestRunNoiseFigure(t *testing.T) {
	l := testLab(t)
	w, err := l.NoiseScenario(0, 1, []float64{0.2, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Run(w, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want 4 schemes", len(fig.Series))
	}
	if got := fig.Levels(); len(got) != 2 || got[0] != 20 || got[1] != 60 || fig.XLabel != "Noise (%)" {
		t.Fatalf("levels = %v, xlabel %q", got, fig.XLabel)
	}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Count != 1 {
				t.Fatalf("point count = %d", p.Count)
			}
			if p.Mean <= 0 {
				t.Fatalf("%v mean = %v", s.Scheme, p.Mean)
			}
		}
	}
	if len(fig.PrepTimes) != len(w.Pairs) {
		t.Fatal("prep times not recorded per pair")
	}
	if len(fig.Raw) != len(w.Pairs)*4 {
		t.Fatalf("raw = %d", len(fig.Raw))
	}
}

func TestRunBalanceFigure(t *testing.T) {
	l := testLab(t)
	w, err := l.BalanceScenario(0.4, 1, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Run(w, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := fig.Levels(); len(got) != 2 || got[0] != 0 || got[1] != 100 {
		t.Fatalf("levels = %v", got)
	}
	if fig.XLabel != "Balance (%)" {
		t.Fatalf("xlabel = %q", fig.XLabel)
	}
}

func TestRunJoinsAndShares(t *testing.T) {
	l := testLab(t)
	w, err := l.JoinsScenario(0.4, 0, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Run(w, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, lv := range fig.Levels() {
		shares := fig.SharesAt(lv)
		var total float64
		for _, v := range shares {
			total += v
		}
		if total < 99.9 || total > 100.1 {
			t.Fatalf("shares at %v sum to %v", lv, total)
		}
	}
	// A joins figure renders its own view: shares, not mean times.
	tbl := fig.Table()
	if fig.XLabel != "Joins" || !strings.Contains(tbl, "(share of running time %)") || !strings.Contains(tbl, "Natural") {
		t.Fatalf("xlabel %q, share table:\n%s", fig.XLabel, tbl)
	}
}

func TestRunRejectsUnknownAxis(t *testing.T) {
	w := &scenario.Workload{Name: "w", Pairs: []scenario.Pair{{Name: "p"}}}
	if _, err := Run(w, fastConfig()); err == nil || !strings.Contains(err.Error(), "axis") {
		t.Fatalf("Run without an axis: err %v", err)
	}
}

func TestTimeoutsAreReported(t *testing.T) {
	l := testLab(t)
	w, err := l.NoiseScenario(0, 1, []float64{0.6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Opts.Budget.MaxSamples = 10 // force budget exhaustion
	fig, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawTimeout := false
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Timeouts > 0 {
				sawTimeout = true
			}
		}
	}
	if !sawTimeout {
		t.Fatal("no timeout recorded despite tiny budget")
	}
	if !strings.Contains(fig.Table(), "TO)") {
		t.Fatalf("table misses timeout annotation:\n%s", fig.Table())
	}
}

func TestTableRendering(t *testing.T) {
	l := testLab(t)
	w, err := l.NoiseScenario(0, 1, []float64{0.2})
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Run(w, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl := fig.Table()
	for _, s := range []string{"Noise[0.0, 1]", "Natural", "KL", "KLM", "Cover", "20"} {
		if !strings.Contains(tbl, s) {
			t.Fatalf("table missing %q:\n%s", s, tbl)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	l := testLab(t)
	w, err := l.NoiseScenario(0, 1, []float64{0.2})
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Run(w, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := fig.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+len(fig.Raw) {
		t.Fatalf("csv lines = %d, want %d", len(lines), 1+len(fig.Raw))
	}
	if !strings.HasPrefix(lines[0], "figure,pair,scheme") {
		t.Fatalf("csv header = %q", lines[0])
	}
}

func TestPrepHistogram(t *testing.T) {
	times := []time.Duration{time.Millisecond, 2 * time.Millisecond, 2500 * time.Microsecond, 9 * time.Millisecond}
	hist := PrepHistogram(times, time.Millisecond)
	if len(hist) != 10 {
		t.Fatalf("buckets = %d", len(hist))
	}
	var sum float64
	for _, h := range hist {
		sum += h
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("histogram sums to %v", sum)
	}
	if hist[2] != 0.5 { // 2ms and 2.5ms land in bucket 2
		t.Fatalf("bucket 2 = %v", hist[2])
	}
	if PrepHistogram(nil, time.Millisecond) != nil {
		t.Fatal("empty input should give nil")
	}
	if PrepHistogram(times, 0) != nil {
		t.Fatal("zero bucket should give nil")
	}
}

func TestWinnerAndTotals(t *testing.T) {
	l := testLab(t)
	w, err := l.NoiseScenario(0, 1, []float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Run(w, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	winner := fig.Winner()
	for _, s := range cqa.Schemes {
		if fig.TotalMean(winner) > fig.TotalMean(s) {
			t.Fatalf("winner %v slower than %v", winner, s)
		}
	}
	if fig.TotalMean(cqa.Scheme(99)) != 0 {
		t.Fatal("unknown scheme total should be 0")
	}
}

func TestBalanceStats(t *testing.T) {
	fig := &Figure{Balances: []float64{0.2, 0.4}}
	mean, std := fig.BalanceStats()
	if mean < 0.299 || mean > 0.301 || std <= 0.09 || std >= 0.11 {
		t.Fatalf("mean=%v std=%v", mean, std)
	}
	empty := &Figure{}
	if m, s := empty.BalanceStats(); m != 0 || s != 0 {
		t.Fatal("empty stats should be zero")
	}
}

func TestValidationRun(t *testing.T) {
	l := testLab(t)
	vq := scenario.TPCHValidationQueries()[1] // Q4_H: 1 join
	w, err := scenario.ValidationScenario(l.Base(), vq, []float64{0.2, 0.4}, 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Timeout = time.Second // timeouts are expected and recorded
	fig, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Levels()) != 2 {
		t.Fatalf("levels = %v", fig.Levels())
	}
	mean, _ := fig.BalanceStats()
	if mean < 0 || mean > 1 {
		t.Fatalf("balance mean = %v", mean)
	}
}
