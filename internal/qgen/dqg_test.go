package qgen_test

import (
	"math"
	"testing"

	"cqabench/internal/cq"
	"cqabench/internal/qgen"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
	"cqabench/internal/synopsis"
)

func dqgFixture(t *testing.T) (*relation.Database, *cq.Query) {
	t.Helper()
	s := relation.MustSchema([]relation.RelDef{
		{Name: "R", Attrs: []string{"k", "a", "b"}, KeyLen: 1},
	}, nil)
	db := relation.NewDatabase(s)
	for i := 0; i < 12; i++ {
		db.MustInsert("R", i, i%4, i%2)
		db.MustInsert("R", i, (i+1)%4, i%2) // conflicting non-keys: blocks of 2
	}
	q := cq.MustParse("Q(k, a, b) :- R(k, a, b)", db.Dict)
	return db, q
}

// checkBalances requires every reported balance to match a fresh
// synopsis computation of the generated query.
func checkBalances(t *testing.T, db *relation.Database, res []qgen.DQGResult) {
	t.Helper()
	for _, r := range res {
		set, err := synopsis.Build(db, r.Query)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(set.Balance()-r.Balance) > 1e-9 {
			t.Fatalf("reported balance %v, synopsis says %v for %s", r.Balance, set.Balance(), r.Query)
		}
	}
}

func TestDQGHitsExtremes(t *testing.T) {
	db, q := dqgFixture(t)
	res, err := qgen.DQG(db, q, []float64{0, 1}, qgen.DQGConfig{Iterations: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Target 0: Boolean projection gives the smallest possible balance.
	if res[0].Balance >= res[1].Balance {
		t.Fatalf("balance(target 0) = %v >= balance(target 1) = %v", res[0].Balance, res[1].Balance)
	}
	// Target 1: projecting the key gives balance 1 (every image its own
	// answer).
	if math.Abs(res[1].Balance-1) > 1e-9 {
		t.Fatalf("best balance for target 1 = %v", res[1].Balance)
	}
	checkBalances(t, db, res)

	// The same check on two Lab pairs, perfbench's pinned base queries
	// at noise 0.4: (joins 1, index 0) and (joins 2, index 2).
	cfg := scenario.DefaultConfig()
	cfg.ScaleFactor = 0.0002
	cfg.QueriesPerJoin = 3
	lab, err := scenario.NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ j, i int }{{1, 0}, {2, 2}} {
		base, err := lab.BaseQuery(c.j, c.i)
		if err != nil {
			t.Fatal(err)
		}
		db, err := lab.NoisyDB(c.j, c.i, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := qgen.DQG(db, base, []float64{0, 0.5, 1}, qgen.DQGConfig{Iterations: cfg.DQGIterations, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res[0].Query.IsBoolean() || res[0].Balance > res[2].Balance {
			t.Fatalf("joins %d index %d: target 0 gave %s (balance %v), target 1 balance %v",
				c.j, c.i, res[0].Query, res[0].Balance, res[2].Balance)
		}
		checkBalances(t, db, res)
	}
}

func TestDQGMonotoneTargets(t *testing.T) {
	db, q := dqgFixture(t)
	targets := []float64{0.1, 0.5, 0.9}
	res, err := qgen.DQG(db, q, targets, qgen.DQGConfig{Iterations: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Target != targets[i] {
			t.Fatal("targets out of order")
		}
		if r.Balance < 0 || r.Balance > 1 {
			t.Fatalf("balance %v out of range", r.Balance)
		}
	}
	if res[0].Balance > res[2].Balance {
		t.Fatalf("balances not trending with targets: %v vs %v", res[0].Balance, res[2].Balance)
	}
}

func TestDQGErrors(t *testing.T) {
	db, q := dqgFixture(t)
	if _, err := qgen.DQG(db, q, nil, qgen.DQGConfig{}); err == nil {
		t.Fatal("no targets accepted")
	}
	if _, err := qgen.DQG(db, q, []float64{2}, qgen.DQGConfig{}); err == nil {
		t.Fatal("target > 1 accepted")
	}
	empty := cq.MustParse("Q() :- R(999, a, b)", db.Dict)
	if _, err := qgen.DQG(db, empty, []float64{0.5}, qgen.DQGConfig{}); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestDQGTimeBudget(t *testing.T) {
	db, q := dqgFixture(t)
	// An expired budget still yields the seeded extremes, so every target
	// gets an answer.
	res, err := qgen.DQG(db, q, []float64{0.5}, qgen.DQGConfig{
		Iterations: 1000000,
		Seed:       1,
		TimeBudget: 1, // effectively expired immediately
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Query == nil {
		t.Fatalf("res = %+v", res)
	}
}
