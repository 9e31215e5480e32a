package cqa

import (
	"context"
	"errors"
	"math"
	"testing"

	"cqabench/internal/cq"
	"cqabench/internal/estimator"
	"cqabench/internal/relation"
	"cqabench/internal/synopsis"
)

func TestOptionsValidate(t *testing.T) {
	base := DefaultOptions()
	cases := []struct {
		name   string
		mutate func(*Options)
		ok     bool
	}{
		{"defaults", func(o *Options) {}, true},
		{"eps zero", func(o *Options) { o.Eps = 0 }, false},
		{"eps one", func(o *Options) { o.Eps = 1 }, false},
		{"eps negative", func(o *Options) { o.Eps = -0.5 }, false},
		{"eps NaN", func(o *Options) { o.Eps = math.NaN() }, false},
		{"delta zero", func(o *Options) { o.Delta = 0 }, false},
		{"delta one", func(o *Options) { o.Delta = 1 }, false},
		{"delta NaN", func(o *Options) { o.Delta = math.NaN() }, false},
		{"negative budget", func(o *Options) { o.Budget.MaxSamples = -1 }, false},
		{"positive budget", func(o *Options) { o.Budget.MaxSamples = 1000 }, true},
		{"sampling workers below auto", func(o *Options) { o.SamplingWorkers = -2 }, false},
		{"sampling workers auto", func(o *Options) { o.SamplingWorkers = -1 }, true},
		{"sampling workers pool", func(o *Options) { o.SamplingWorkers = 8 }, true},
		{"tuple workers below auto", func(o *Options) { o.TupleWorkers = -2 }, false},
		{"tuple workers auto", func(o *Options) { o.TupleWorkers = -1 }, true},
		{"tuple workers pool", func(o *Options) { o.TupleWorkers = 1 }, true},
		{"tight valid", func(o *Options) { o.Eps = 0.999; o.Delta = 0.001 }, true},
	}
	for _, tc := range cases {
		opts := base
		tc.mutate(&opts)
		err := opts.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: invalid options accepted", tc.name)
			} else if !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("%s: error %v does not wrap ErrInvalidOptions", tc.name, err)
			}
		}
	}
}

// The answer call must reject invalid options with ErrInvalidOptions
// before doing any work, in both tuple modes.
func TestEntryPointsValidateOptions(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q() :- Employee(1, n1, d), Employee(2, n2, d)", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2} {
		bad := DefaultOptions()
		bad.Eps = 2
		bad.TupleWorkers = workers
		if _, stats, err := ApxAnswersFromSetContext(context.Background(), set, KLM, bad); !errors.Is(err, ErrInvalidOptions) || stats.Samples != 0 {
			t.Fatalf("tuple workers %d: err %v after %d samples", workers, err, stats.Samples)
		}
	}
}

// bigBlockDB returns a database whose single answer tuple has enough
// conflicting blocks that an estimation runs long enough to cancel.
func bigBlockDB(t testing.TB, blocks int) (*relation.Database, *cq.Query) {
	t.Helper()
	s := relation.MustSchema([]relation.RelDef{
		{Name: "R", Attrs: []string{"k", "v"}, KeyLen: 1},
	}, nil)
	db := relation.NewDatabase(s)
	for b := 0; b < blocks; b++ {
		db.MustInsert("R", b, "a")
		db.MustInsert("R", b, "b")
	}
	q := cq.MustParse("Q() :- R(k, 'a')", db.Dict)
	return db, q
}

// A pre-canceled context must abort estimation before the first draw and
// surface an error matching both the cqa and context sentinels.
func TestApxAnswersFromSetContextCanceled(t *testing.T) {
	db, q := bigBlockDB(t, 8)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, scheme := range Schemes {
		_, stats, err := ApxAnswersFromSetContext(ctx, set, scheme, DefaultOptions())
		if !errors.Is(err, estimator.ErrCanceled) {
			t.Fatalf("%v: error %v does not wrap ErrCanceled", scheme, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: error %v does not wrap context.Canceled", scheme, err)
		}
		// The batched schemes abort before their first draw; the
		// coverage walk polls every 256 unit charges, so it may perform
		// up to one stride of steps. Either way: at most one chunk.
		if stats.Samples > 256 {
			t.Fatalf("%v: %d draws performed under a canceled context, want at most one chunk", scheme, stats.Samples)
		}
	}
}

func TestParallelContextCanceled(t *testing.T) {
	db, q := bigBlockDB(t, 8)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = ApxAnswersFromSetContext(ctx, set, KLM, tuplePool(DefaultOptions(), 4))
	if !errors.Is(err, estimator.ErrCanceled) {
		t.Fatalf("parallel error %v does not wrap ErrCanceled", err)
	}
}

// A live, cancelable context must leave results bit-identical to a run
// under context.Background().
func TestContextFreeAndContextResultsMatch(t *testing.T) {
	db, q := bigBlockDB(t, 4)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, scheme := range Schemes {
		plain, sp, err1 := ApxAnswersFromSetContext(context.Background(), set, scheme, DefaultOptions())
		withCtx, sc, err2 := ApxAnswersFromSetContext(ctx, set, scheme, DefaultOptions())
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: %v / %v", scheme, err1, err2)
		}
		if len(plain) != len(withCtx) || sp.Samples != sc.Samples {
			t.Fatalf("%v: result shapes diverge (%d/%d answers, %d/%d samples)",
				scheme, len(plain), len(withCtx), sp.Samples, sc.Samples)
		}
		for i := range plain {
			if plain[i].Freq != withCtx[i].Freq {
				t.Fatalf("%v: tuple %d freq %v != %v", scheme, i, plain[i].Freq, withCtx[i].Freq)
			}
		}
	}
}
