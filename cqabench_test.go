package cqabench_test

import (
	"context"
	"math"
	"testing"

	"cqabench"
)

func exampleDB(t testing.TB) *cqabench.Database {
	t.Helper()
	db := cqabench.NewDatabase(cqabench.MustSchema([]cqabench.RelDef{
		{Name: "Employee", Attrs: []string{"id", "name", "dept"}, KeyLen: 1},
	}, nil))
	db.MustInsert("Employee", 1, "Bob", "HR")
	db.MustInsert("Employee", 1, "Bob", "IT")
	db.MustInsert("Employee", 2, "Alice", "IT")
	db.MustInsert("Employee", 2, "Tim", "IT")
	return db
}

func TestPublicAPIEndToEnd(t *testing.T) {
	db := exampleDB(t)
	if cqabench.IsConsistent(db) {
		t.Fatal("example DB should be inconsistent")
	}
	if got := cqabench.CountRepairs(db); got != "4" {
		t.Fatalf("CountRepairs = %s", got)
	}
	q := cqabench.MustParseQuery("Q() :- Employee(1, n1, d), Employee(2, n2, d)", db)
	exact, err := cqabench.ExactAnswers(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 1 || math.Abs(exact[0].Freq-0.5) > 1e-12 {
		t.Fatalf("exact = %+v", exact)
	}
	set, err := cqabench.BuildSynopsisContext(context.Background(), db, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range cqabench.Schemes {
		res, stats, err := cqabench.ApproximateContext(context.Background(), set, scheme, cqabench.DefaultOptions())
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(res) != 1 || math.Abs(res[0].Freq-0.5) > 0.06 {
			t.Fatalf("%v: res = %+v", scheme, res)
		}
		if stats.Samples == 0 {
			t.Fatalf("%v: no samples", scheme)
		}
	}
}

func TestPublicAPICertainAnswers(t *testing.T) {
	db := exampleDB(t)
	q := cqabench.MustParseQuery("Q(d) :- Employee(2, n, d)", db)
	certain, err := cqabench.CertainAnswers(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(certain) != 1 {
		t.Fatalf("certain = %v", certain)
	}
}

func TestPublicAPIParseErrors(t *testing.T) {
	db := exampleDB(t)
	if _, err := cqabench.ParseQuery("garbage", db); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := cqabench.ParseQuery("Q(x) :- Unknown(x)", db); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	db, err := cqabench.GenerateTPCH(0.0002, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !cqabench.IsConsistent(db) {
		t.Fatal("generated DB inconsistent")
	}
	q, err := cqabench.GenerateQuery(db, 2, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumJoins() != 2 {
		t.Fatalf("joins = %d", q.NumJoins())
	}
	noisy, err := cqabench.ApplyNoise(db, q, cqabench.DefaultNoise(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if cqabench.IsConsistent(noisy) {
		t.Fatal("noisy DB consistent")
	}
	bal, err := cqabench.BalanceOf(noisy, q)
	if err != nil || bal < 0 || bal > 1 {
		t.Fatalf("balance = %v (%v)", bal, err)
	}
	tuned, err := cqabench.TuneBalance(noisy, q, []float64{0.5}, 30, 1)
	if err != nil || len(tuned) != 1 {
		t.Fatalf("tuned = %v (%v)", tuned, err)
	}
	ds, err := cqabench.GenerateTPCDS(0.0002, 1)
	if err != nil || !cqabench.IsConsistent(ds) {
		t.Fatalf("tpcds: %v", err)
	}
	if cqabench.TPCHSchema().Rel("lineitem") == nil || cqabench.TPCDSSchema().Rel("store_sales") == nil {
		t.Fatal("schema accessors broken")
	}
}
