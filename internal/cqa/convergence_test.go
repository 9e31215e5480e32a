package cqa

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cqabench/internal/cq"
	"cqabench/internal/synopsis"
)

func convergenceSet(t *testing.T) *synopsis.Set {
	t.Helper()
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, 'IT')", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Entries) < 2 {
		t.Fatalf("fixture has %d tuples, want >= 2", len(set.Entries))
	}
	return set
}

func TestConvergenceOptionsValidate(t *testing.T) {
	opts := DefaultOptions()
	opts.Convergence.MaxPoints = -1
	if err := opts.Validate(); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("negative MaxPoints: err = %v", err)
	}
	opts = DefaultOptions()
	opts.Convergence = ConvergenceOptions{Enabled: true, MaxPoints: 64}
	if err := opts.Validate(); err != nil {
		t.Fatalf("valid convergence options rejected: %v", err)
	}
}

func TestConvergenceTrajectoriesRecorded(t *testing.T) {
	set := convergenceSet(t)
	for _, scheme := range Schemes {
		opts := DefaultOptions()
		opts.Convergence.Enabled = true
		res, stats, err := ApxAnswersFromSetContext(context.Background(), set, scheme, opts)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(stats.Convergence) != len(res) {
			t.Fatalf("%v: %d trajectories for %d tuples", scheme, len(stats.Convergence), len(res))
		}
		for i, tt := range stats.Convergence {
			if tt.Tuple != i {
				t.Fatalf("%v: trajectory %d labeled tuple %d", scheme, i, tt.Tuple)
			}
			if len(tt.Points) == 0 {
				t.Fatalf("%v: tuple %d has an empty trajectory", scheme, i)
			}
			last := tt.Points[len(tt.Points)-1]
			if last.Progress != 1 {
				t.Fatalf("%v: tuple %d final progress %v", scheme, i, last.Progress)
			}
		}
	}
}

func TestConvergenceMaxTuplesCap(t *testing.T) {
	set := manySmallSet()
	if len(set.Entries) <= ConvergenceTuples {
		t.Fatalf("fixture has %d tuples, want more than %d", len(set.Entries), ConvergenceTuples)
	}
	opts := DefaultOptions()
	opts.Convergence.Enabled = true
	_, stats, err := ApxAnswersFromSetContext(context.Background(), set, Natural, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Convergence) != ConvergenceTuples {
		t.Fatalf("%d trajectories, want %d", len(stats.Convergence), ConvergenceTuples)
	}
	for i, tt := range stats.Convergence {
		if tt.Tuple != i {
			t.Fatalf("trajectory %d labeled tuple %d, want the first %d tuples", i, tt.Tuple, ConvergenceTuples)
		}
	}
}

func TestConvergenceMaxPointsCap(t *testing.T) {
	set := convergenceSet(t)
	opts := DefaultOptions()
	// The minimum recorder capacity is 2; a tight cap must still hold the
	// final point while never exceeding the cap.
	opts.Convergence = ConvergenceOptions{Enabled: true, MaxPoints: 2}
	_, stats, err := ApxAnswersFromSetContext(context.Background(), set, KL, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range stats.Convergence {
		if len(tt.Points) > 2 {
			t.Fatalf("tuple %d trajectory has %d points, cap 2", tt.Tuple, len(tt.Points))
		}
	}
}

// Recording must not perturb answers, sample counts, or the PRNG stream:
// a run with recording on returns bit-identical results to one with it
// off. This is the set-level face of the estimator's passivity guarantee.
func TestConvergenceRecordingPreservesAnswers(t *testing.T) {
	set := convergenceSet(t)
	for _, scheme := range Schemes {
		plainRes, plainStats, err := ApxAnswersFromSetContext(context.Background(), set, scheme, DefaultOptions())
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		opts := DefaultOptions()
		opts.Convergence.Enabled = true
		recRes, recStats, err := ApxAnswersFromSetContext(context.Background(), set, scheme, opts)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !reflect.DeepEqual(plainRes, recRes) {
			t.Fatalf("%v: recording changed answers:\noff %v\non  %v", scheme, plainRes, recRes)
		}
		if plainStats.Samples != recStats.Samples || plainStats.GoodRatio != recStats.GoodRatio {
			t.Fatalf("%v: recording changed stats: off {Samples:%d Good:%v} on {Samples:%d Good:%v}",
				scheme, plainStats.Samples, plainStats.GoodRatio, recStats.Samples, recStats.GoodRatio)
		}
	}
}

// The parallel path records the same trajectories as the sequential one
// (deterministic per-tuple streams), in the same index order.
func TestConvergenceParallelMatchesSequential(t *testing.T) {
	set := convergenceSet(t)
	opts := DefaultOptions()
	opts.Convergence.Enabled = true
	_, par, err := ApxAnswersFromSetContext(context.Background(), set, KLM, tuplePool(opts, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Convergence) != len(set.Entries) {
		t.Fatalf("parallel recorded %d trajectories, want %d", len(par.Convergence), len(set.Entries))
	}
	for i, tt := range par.Convergence {
		if tt.Tuple != i || len(tt.Points) == 0 {
			t.Fatalf("parallel trajectory %d = {Tuple:%d, %d points}", i, tt.Tuple, len(tt.Points))
		}
	}
}
