package cqabench_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"cqabench"
)

func TestSynopsisAPI(t *testing.T) {
	db := exampleDB(t)
	q := cqabench.MustParseQuery("Q(n) :- Employee(i, n, 'IT')", db)
	ctx := context.Background()
	set, err := cqabench.BuildSynopsisContext(ctx, db, q)
	if err != nil {
		t.Fatal(err)
	}
	if set.OutputSize() != 3 {
		t.Fatalf("output size = %d", set.OutputSize())
	}
	res, _, err := cqabench.ApproximateContext(ctx, set, cqabench.KL, cqabench.DefaultOptions())
	if err != nil || len(res) != 3 {
		t.Fatalf("from-synopsis: %v, %v", res, err)
	}
	opts := cqabench.DefaultOptions()
	opts.TupleWorkers = 4
	par, _, err := cqabench.ApproximateContext(ctx, set, cqabench.KL, opts)
	if err != nil || len(par) != 3 {
		t.Fatalf("parallel: %v, %v", par, err)
	}
	for i := range res {
		if res[i].Freq < 0 || res[i].Freq > 1 || par[i].Freq < 0 || par[i].Freq > 1 {
			t.Fatal("frequency out of range")
		}
	}
	auto, _, err := cqabench.ApproximateContext(ctx, set, cqabench.SelectScheme(set), cqabench.DefaultOptions())
	if err != nil || len(auto) != 3 {
		t.Fatalf("auto: %v", err)
	}
}

func TestStreamSynopsesAPI(t *testing.T) {
	db := exampleDB(t)
	q := cqabench.MustParseQuery("Q(n) :- Employee(i, n, d)", db)
	count := 0
	if err := cqabench.StreamSynopses(db, q, func(e cqabench.SynopsisEntry) error {
		count++
		if e.Pair.NumImages() == 0 {
			t.Fatal("empty synopsis streamed")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("streamed %d entries", count)
	}
	// Early stop.
	count = 0
	if err := cqabench.StreamSynopses(db, q, func(cqabench.SynopsisEntry) error {
		count++
		return cqabench.SynopsisStop
	}); err != nil || count != 1 {
		t.Fatalf("stop: count=%d err=%v", count, err)
	}
}

func TestSerializationAPI(t *testing.T) {
	db := exampleDB(t)
	var buf strings.Builder
	if err := cqabench.WriteDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := cqabench.ReadDatabase(strings.NewReader(buf.String()), db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumFacts() != db.NumFacts() {
		t.Fatal("round trip lost facts")
	}
}

func TestSchemaDSLAPI(t *testing.T) {
	s, err := cqabench.ParseSchemaString("relation R(k*, v)\n")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := cqabench.WriteSchema(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "relation R(k*, v)") {
		t.Fatalf("dsl = %q", buf.String())
	}
	if _, err := cqabench.ParseSchemaString("garbage"); err == nil {
		t.Fatal("garbage schema accepted")
	}
}

func TestQueryReasoningAPI(t *testing.T) {
	db := exampleDB(t)
	q1 := cqabench.MustParseQuery("Q(n) :- Employee(i, n, d)", db)
	q2 := cqabench.MustParseQuery("Q(n) :- Employee(i, n, d), Employee(i, n, d2)", db)
	eq, err := cqabench.EquivalentQueries(db, q1, q2)
	if err != nil || !eq {
		t.Fatalf("equivalence: %v, %v", eq, err)
	}
	m, err := cqabench.MinimizeQuery(db, q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Atoms) != 1 {
		t.Fatalf("minimized atoms = %d", len(m.Atoms))
	}
	strict := cqabench.MustParseQuery("Q(n) :- Employee(i, n, 'IT')", db)
	contained, err := cqabench.Contained(db, strict, q1)
	if err != nil || !contained {
		t.Fatalf("containment: %v, %v", contained, err)
	}
}

func TestAnswersAPI(t *testing.T) {
	db := exampleDB(t)
	q := cqabench.MustParseQuery("Q(d) :- Employee(i, n, d)", db)
	ans, err := cqabench.Answers(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 { // HR, IT
		t.Fatalf("answers = %v", ans)
	}
}

func TestParallelBudgetViaAPI(t *testing.T) {
	db := exampleDB(t)
	q := cqabench.MustParseQuery("Q(n) :- Employee(i, n, d)", db)
	set, err := cqabench.BuildSynopsisContext(context.Background(), db, q)
	if err != nil {
		t.Fatal(err)
	}
	opts := cqabench.DefaultOptions()
	opts.Budget.MaxSamples = 1
	opts.TupleWorkers = 2
	_, _, err = cqabench.ApproximateContext(context.Background(), set, cqabench.Natural, opts)
	if err == nil {
		t.Fatal("budget not enforced through API")
	}
	var want error = err
	if !errors.Is(err, want) {
		t.Fatal("unreachable")
	}
}

func TestExactViaSynopsisMatchesSchemes(t *testing.T) {
	db := exampleDB(t)
	q := cqabench.MustParseQuery("Q() :- Employee(1, n1, d), Employee(2, n2, d)", db)
	exact, err := cqabench.ExactAnswers(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact[0].Freq-0.5) > 1e-12 {
		t.Fatalf("exact = %v", exact[0].Freq)
	}
}
