package scenario

import (
	"testing"

	"cqabench/internal/engine"
	"cqabench/internal/relation"
	"cqabench/internal/tpcds"
	"cqabench/internal/tpch"
)

func testLab(t *testing.T) *Lab {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ScaleFactor = 0.0003
	cfg.QueriesPerJoin = 1
	cfg.DQGIterations = 30
	l, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLabBaseQueries(t *testing.T) {
	l := testLab(t)
	for _, j := range []int{1, 2, 3} {
		q, err := l.BaseQuery(j, 0)
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if q.NumJoins() != j {
			t.Fatalf("j=%d: query has %d joins", j, q.NumJoins())
		}
		if q.NumConstants() != 2 {
			t.Fatalf("j=%d: query has %d constants", j, q.NumConstants())
		}
		ok, err := engine.NewEvaluator(l.base).HasAnswer(q.Boolean(), nil)
		if err != nil || !ok {
			t.Fatalf("j=%d: base query empty over base DB (%v)", j, err)
		}
	}
	if _, err := l.BaseQuery(1, 5); err == nil {
		t.Fatal("out-of-range query index accepted")
	}
}

func TestLabNoisyDBCached(t *testing.T) {
	l := testLab(t)
	a, err := l.NoisyDB(1, 0, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if relation.IsConsistentDB(a) {
		t.Fatal("noisy DB consistent")
	}
	b, err := l.NoisyDB(1, 0, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("noisy DB not cached")
	}
}

func TestLabBalancedQuery(t *testing.T) {
	l := testLab(t)
	q0, bal0, err := l.BalancedQuery(1, 0, 0.4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !q0.IsBoolean() || bal0 != 0 {
		t.Fatalf("q=0 must give Boolean query, got %s bal=%v", q0, bal0)
	}
	q1, bal1, err := l.BalancedQuery(1, 0, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q1.IsBoolean() {
		t.Fatal("q=1 gave Boolean query")
	}
	if bal1 <= 0 || bal1 > 1 {
		t.Fatalf("achieved balance %v", bal1)
	}
}

func TestNoiseScenarioShape(t *testing.T) {
	l := testLab(t)
	w, err := l.NoiseScenario(0, 1, []float64{0.2, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "Noise[0.0, 1]" || w.Axis != NoiseAxis {
		t.Fatalf("name, axis = %q, %q", w.Name, w.Axis)
	}
	if lv := w.Axis.Level(w.Pairs[1]); lv != 60 || w.Axis.Label() != "Noise (%)" {
		t.Fatalf("level %v, label %q; want 60 on Noise (%%)", lv, w.Axis.Label())
	}
	if len(w.Pairs) != 2 { // 2 levels x 1 query per join
		t.Fatalf("pairs = %d", len(w.Pairs))
	}
	for _, p := range w.Pairs {
		if !p.Query.IsBoolean() {
			t.Fatal("balance-0 scenario must use Boolean queries")
		}
		if p.Joins != 1 {
			t.Fatal("join level wrong")
		}
	}
}

func TestBalanceScenarioShape(t *testing.T) {
	l := testLab(t)
	w, err := l.BalanceScenario(0.4, 1, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Pairs) != 3 || w.Axis != BalanceAxis {
		t.Fatalf("pairs, axis = %d, %q", len(w.Pairs), w.Axis)
	}
	if lv := w.Axis.Level(w.Pairs[1]); lv != 50 || w.Axis.Label() != "Balance (%)" {
		t.Fatalf("level %v, label %q; want 50 on Balance (%%)", lv, w.Axis.Label())
	}
	for _, p := range w.Pairs {
		if p.Noise != 0.4 {
			t.Fatal("noise level wrong")
		}
	}
}

func TestJoinsScenarioShape(t *testing.T) {
	l := testLab(t)
	w, err := l.JoinsScenario(0.4, 0, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Pairs) != 2 || w.Axis != JoinsAxis {
		t.Fatalf("pairs, axis = %d, %q", len(w.Pairs), w.Axis)
	}
	if lv := w.Axis.Level(w.Pairs[1]); lv != 2 || w.Axis.Label() != "Joins" {
		t.Fatalf("level %v, label %q; want 2 on Joins", lv, w.Axis.Label())
	}
	if Axis("depth").Label() != "" {
		t.Fatal("unknown axis has a label")
	}
	if w.Pairs[0].Joins == w.Pairs[1].Joins {
		t.Fatal("join levels not varied")
	}
}

func TestValidationQueriesParse(t *testing.T) {
	hdb := tpch.MustGenerate(tpch.Config{ScaleFactor: 0.0003, Seed: 1})
	for _, vq := range TPCHValidationQueries() {
		w, err := ValidationScenario(hdb, vq, []float64{0.3}, 2, 5, 1)
		if err != nil {
			t.Fatalf("%s: %v", vq.Name(), err)
		}
		if len(w.Pairs) != 1 || w.Pairs[0].Balance < 0 || w.Axis != NoiseAxis {
			t.Fatalf("%s: workload %+v", vq.Name(), w)
		}
	}
	dsdb := tpcds.MustGenerate(tpcds.Config{ScaleFactor: 0.0003, Seed: 1})
	for _, vq := range TPCDSValidationQueries() {
		w, err := ValidationScenario(dsdb, vq, []float64{0.3}, 2, 5, 1)
		if err != nil {
			t.Fatalf("%s: %v", vq.Name(), err)
		}
		if len(w.Pairs) != 1 {
			t.Fatalf("%s: pairs = %d", vq.Name(), len(w.Pairs))
		}
	}
}

func TestValidationNames(t *testing.T) {
	if got := (ValidationQuery{Benchmark: "TPC-H", TemplateID: 4}).Name(); got != "Q4_H" {
		t.Fatalf("name = %q", got)
	}
	if got := (ValidationQuery{Benchmark: "TPC-DS", TemplateID: 33}).Name(); got != "Q33_DS" {
		t.Fatalf("name = %q", got)
	}
}

func TestValidationCounts(t *testing.T) {
	if len(TPCHValidationQueries()) != 9 {
		t.Fatal("paper selects 9 TPC-H templates")
	}
	if len(TPCDSValidationQueries()) != 8 {
		t.Fatal("paper selects 8 TPC-DS templates")
	}
}

func TestPaperGrids(t *testing.T) {
	cfg := PaperConfig()
	if cfg.ScaleFactor != 1 || cfg.QueriesPerJoin != 5 {
		t.Fatalf("paper config = %+v", cfg)
	}
	if n := PaperNoiseLevels(); len(n) != 10 || n[0] != 0.1 || n[9] != 1.0 {
		t.Fatalf("noise levels = %v", n)
	}
	if b := PaperBalanceLevels(); len(b) != 11 || b[0] != 0 || b[10] != 1.0 {
		t.Fatalf("balance levels = %v", b)
	}
	if j := PaperJoinLevels(); len(j) != 5 || j[4] != 5 {
		t.Fatalf("join levels = %v", j)
	}
	// Grid sizes match the paper's 55 noise, 50 balance, 110 join
	// scenarios over 2750 pairs.
	noiseScenarios := len(PaperBalanceLevels()) * len(PaperJoinLevels())
	balanceScenarios := len(PaperNoiseLevels()) * len(PaperJoinLevels())
	joinScenarios := len(PaperNoiseLevels()) * len(PaperBalanceLevels())
	if noiseScenarios != 55 || balanceScenarios != 50 || joinScenarios != 110 {
		t.Fatalf("scenario counts: noise=%d balance=%d joins=%d", noiseScenarios, balanceScenarios, joinScenarios)
	}
	pairs := len(PaperJoinLevels()) * cfg.QueriesPerJoin * len(PaperNoiseLevels()) * len(PaperBalanceLevels())
	if pairs != 2750 {
		t.Fatalf("P_H size = %d, want 2750", pairs)
	}
}
