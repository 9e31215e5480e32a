package cqabench_test

import (
	"context"
	"errors"
	"testing"

	"cqabench"
)

// The sentinel errors must be observable with errors.Is through every
// public entry point — that is the acceptance contract of the context
// API redesign.

func TestErrBudgetThroughPublicAPI(t *testing.T) {
	db := exampleDB(t)
	q := cqabench.MustParseQuery("Q(n) :- Employee(i, n, d)", db)
	set, err := cqabench.BuildSynopsisContext(context.Background(), db, q)
	if err != nil {
		t.Fatal(err)
	}
	opts := cqabench.DefaultOptions()
	opts.Budget.MaxSamples = 1
	_, _, err = cqabench.ApproximateContext(context.Background(), set, cqabench.KLM, opts)
	if !errors.Is(err, cqabench.ErrBudget) {
		t.Fatalf("sequential: error %v does not wrap cqabench.ErrBudget", err)
	}
	opts.TupleWorkers = 2
	_, _, err = cqabench.ApproximateContext(context.Background(), set, cqabench.KLM, opts)
	if !errors.Is(err, cqabench.ErrBudget) {
		t.Fatalf("parallel: error %v does not wrap cqabench.ErrBudget", err)
	}
}

func TestErrInvalidOptionsThroughPublicAPI(t *testing.T) {
	db := exampleDB(t)
	q := cqabench.MustParseQuery("Q(n) :- Employee(i, n, d)", db)
	set, err := cqabench.BuildSynopsisContext(context.Background(), db, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, bad := range []func(*cqabench.Options){
		func(o *cqabench.Options) { o.Eps = 0 },
		func(o *cqabench.Options) { o.Eps = 1.5 },
		func(o *cqabench.Options) { o.Delta = 0 },
		func(o *cqabench.Options) { o.Budget.MaxSamples = -3 },
		func(o *cqabench.Options) { o.TupleWorkers = -2 },
		func(o *cqabench.Options) { o.SamplingWorkers = -2 },
	} {
		for _, workers := range []int{0, 2} {
			opts := cqabench.DefaultOptions()
			opts.TupleWorkers = workers
			bad(&opts)
			if _, _, err := cqabench.ApproximateContext(ctx, set, cqabench.Natural, opts); !errors.Is(err, cqabench.ErrInvalidOptions) {
				t.Fatalf("ApproximateContext(%+v): %v", opts, err)
			}
		}
	}
}

// Cancelling during the preprocessing step must abort the synopsis build
// itself.
func TestBuildSynopsisContextCanceled(t *testing.T) {
	db := cqabench.NewDatabase(cqabench.MustSchema([]cqabench.RelDef{
		{Name: "R", Attrs: []string{"k", "v"}, KeyLen: 1},
	}, nil))
	for k := 0; k < 3000; k++ { // >1024 homomorphisms, so the build's ctx poll fires
		db.MustInsert("R", k, "a")
		db.MustInsert("R", k, "b")
	}
	q := cqabench.MustParseQuery("Q() :- R(k, 'a')", db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cqabench.BuildSynopsisContext(ctx, db, q); !errors.Is(err, cqabench.ErrCanceled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("build under canceled context returned %v", err)
	}
}

func TestErrCanceledThroughPublicAPI(t *testing.T) {
	db := exampleDB(t)
	q := cqabench.MustParseQuery("Q(n) :- Employee(i, n, d)", db)
	set, err := cqabench.BuildSynopsisContext(context.Background(), db, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = cqabench.ApproximateContext(ctx, set, cqabench.KLM, cqabench.DefaultOptions())
	if !errors.Is(err, cqabench.ErrCanceled) {
		t.Fatalf("error %v does not wrap cqabench.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// A live, cancelable context must not perturb the estimates: it and
// context.Background() share the PRNG stream position draw for draw.
func TestContextAPIDeterminismMatchesPlainAPI(t *testing.T) {
	db := exampleDB(t)
	q := cqabench.MustParseQuery("Q(n) :- Employee(i, n, d)", db)
	set, err := cqabench.BuildSynopsisContext(context.Background(), db, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, scheme := range cqabench.Schemes {
		plain, ps, err1 := cqabench.ApproximateContext(context.Background(), set, scheme, cqabench.DefaultOptions())
		withCtx, cs, err2 := cqabench.ApproximateContext(ctx, set, scheme, cqabench.DefaultOptions())
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: %v / %v", scheme, err1, err2)
		}
		if ps.Samples != cs.Samples || len(plain) != len(withCtx) {
			t.Fatalf("%v: shapes diverge (%d/%d samples, %d/%d answers)",
				scheme, ps.Samples, cs.Samples, len(plain), len(withCtx))
		}
		for i := range plain {
			if plain[i].Freq != withCtx[i].Freq {
				t.Fatalf("%v: tuple %d freq %v != %v", scheme, i, plain[i].Freq, withCtx[i].Freq)
			}
		}
	}
}
