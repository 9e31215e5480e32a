package cqa

import (
	"context"
	"errors"
	"math"
	"testing"

	"cqabench/internal/cq"
	"cqabench/internal/estimator"
	"cqabench/internal/synopsis"
)

// tuplePool returns opts with the tuples fanned over a pool of workers.
func tuplePool(opts Options, workers int) Options {
	opts.TupleWorkers = workers
	return opts
}

func TestParallelMatchesAccuracy(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, 'IT')", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range Schemes {
		res, stats, err := ApxAnswersFromSetContext(context.Background(), set, scheme, tuplePool(DefaultOptions(), 4))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(res) != 3 || stats.NumTuples != 3 || stats.Samples == 0 {
			t.Fatalf("%v: res=%d stats=%+v", scheme, len(res), stats)
		}
		for _, tf := range res {
			if math.Abs(tf.Freq-0.5) > 0.08 && math.Abs(tf.Freq-1) > 0.08 {
				t.Fatalf("%v: freq %v far from any exact value", scheme, tf.Freq)
			}
		}
	}
}

func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, d)", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	one, _, err := ApxAnswersFromSetContext(context.Background(), set, KLM, tuplePool(opts, 1))
	if err != nil {
		t.Fatal(err)
	}
	eight, _, err := ApxAnswersFromSetContext(context.Background(), set, KLM, tuplePool(opts, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != len(eight) {
		t.Fatal("result lengths differ")
	}
	for i := range one {
		if !one[i].Tuple.Equal(eight[i].Tuple) || one[i].Freq != eight[i].Freq {
			t.Fatalf("tuple %d differs across worker counts: %v vs %v", i, one[i], eight[i])
		}
	}
}

func TestParallelPreservesTupleOrder(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, d)", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := ApxAnswersFromSetContext(context.Background(), set, Natural, tuplePool(DefaultOptions(), 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if !res[i].Tuple.Equal(set.Entries[i].Tuple) {
			t.Fatal("parallel results out of order")
		}
	}
}

func TestParallelBudgetError(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, d)", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Budget = estimator.Budget{MaxSamples: 2}
	_, stats, err := ApxAnswersFromSetContext(context.Background(), set, Natural, tuplePool(opts, 4))
	if !errors.Is(err, estimator.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	// The failed run's stats must still carry the tuple count, so
	// recordRunMetrics and callers see it on the error path too. Worker
	// wall times overlap, so a pool reports no stages.
	if stats.NumTuples != len(set.Entries) || len(stats.Stages) != 0 {
		t.Fatalf("pool error path: NumTuples = %d (want %d), %d stages (want 0)",
			stats.NumTuples, len(set.Entries), len(stats.Stages))
	}
	// The sequential loop stops at the failing tuple, answers none, and
	// still reports its stages (perfbench's traced run reads "other").
	_, stats, err = ApxAnswersFromSetContext(context.Background(), set, Natural, opts)
	if !errors.Is(err, estimator.ErrBudget) {
		t.Fatalf("sequential err = %v, want ErrBudget", err)
	}
	if stats.NumTuples != 0 || len(stats.Stages) == 0 {
		t.Fatalf("sequential error path: NumTuples = %d (want 0), %d stages (want some)",
			stats.NumTuples, len(stats.Stages))
	}
}

// TupleWorkers -1 sizes the pool to GOMAXPROCS; it is still the pool
// mode, so it returns the answers of any other pool size.
func TestParallelDefaultWorkerCount(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, d)", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	auto, _, err := ApxAnswersFromSetContext(context.Background(), set, KL, tuplePool(DefaultOptions(), -1))
	if err != nil {
		t.Fatal(err)
	}
	two, _, err := ApxAnswersFromSetContext(context.Background(), set, KL, tuplePool(DefaultOptions(), 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range two {
		if auto[i].Freq != two[i].Freq {
			t.Fatalf("tuple %d: auto pool %v, pool of 2 %v", i, auto[i].Freq, two[i].Freq)
		}
	}
}
