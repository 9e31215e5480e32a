package cqa

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"cqabench/internal/cq"
	"cqabench/internal/estimator"
	"cqabench/internal/relation"
	"cqabench/internal/repair"
	"cqabench/internal/synopsis"
)

func employeeDB(t testing.TB) *relation.Database {
	t.Helper()
	s := relation.MustSchema([]relation.RelDef{
		{Name: "Employee", Attrs: []string{"id", "name", "dept"}, KeyLen: 1},
	}, nil)
	db := relation.NewDatabase(s)
	db.MustInsert("Employee", 1, "Bob", "HR")
	db.MustInsert("Employee", 1, "Bob", "IT")
	db.MustInsert("Employee", 2, "Alice", "IT")
	db.MustInsert("Employee", 2, "Tim", "IT")
	return db
}

// apx builds q's synopsis over db and runs the answer call on it.
func apx(t testing.TB, db *relation.Database, q *cq.Query, scheme Scheme, opts Options) ([]TupleFreq, Stats, error) {
	t.Helper()
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	return ApxAnswersFromSetContext(context.Background(), set, scheme, opts)
}

func TestSchemeNames(t *testing.T) {
	want := []string{"Natural", "KL", "KLM", "Cover"}
	for i, s := range Schemes {
		if s.String() != want[i] {
			t.Fatalf("scheme %d = %q", i, s.String())
		}
		parsed, err := ParseScheme(want[i])
		if err != nil || parsed != s {
			t.Fatalf("ParseScheme(%q) = %v, %v", want[i], parsed, err)
		}
	}
	if _, err := ParseScheme("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if got := Scheme(42).String(); got != "Scheme(42)" {
		t.Fatalf("unknown String = %q", got)
	}
}

// Example 1.1 end-to-end: the Boolean same-department query has relative
// frequency 0.5; every scheme must land within ε = 0.1 of it.
func TestAllSchemesOnExample(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q() :- Employee(1, n1, d), Employee(2, n2, d)", db.Dict)
	for _, scheme := range Schemes {
		opts := DefaultOptions()
		res, stats, err := apx(t, db, q, scheme, opts)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(res) != 1 || len(res[0].Tuple) != 0 {
			t.Fatalf("%v: answers = %v", scheme, res)
		}
		if math.Abs(res[0].Freq-0.5) > 0.05 {
			t.Fatalf("%v: freq = %v, want 0.5±0.05", scheme, res[0].Freq)
		}
		if stats.Samples <= 0 || stats.NumTuples != 1 {
			t.Fatalf("%v: stats = %+v", scheme, stats)
		}
	}
}

func TestAllSchemesNonBoolean(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, 'IT')", db.Dict)
	exact, err := repair.ExactAnswers(db, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantByName := map[string]float64{}
	for _, tf := range exact {
		wantByName[db.Dict.Render(tf.Tuple[0])] = tf.Freq
	}
	for _, scheme := range Schemes {
		res, _, err := apx(t, db, q, scheme, DefaultOptions())
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(res) != len(exact) {
			t.Fatalf("%v: %d answers, want %d", scheme, len(res), len(exact))
		}
		for _, tf := range res {
			name := db.Dict.Render(tf.Tuple[0])
			want := wantByName[name]
			if math.Abs(tf.Freq-want) > 0.15*want+0.02 {
				t.Fatalf("%v: %s freq %v, want %v", scheme, name, tf.Freq, want)
			}
		}
	}
}

func TestEmptyAnswer(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q() :- Employee(9, n, d)", db.Dict)
	for _, scheme := range Schemes {
		res, _, err := apx(t, db, q, scheme, DefaultOptions())
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(res) != 0 {
			t.Fatalf("%v: answers = %v, want none", scheme, res)
		}
	}
}

func TestExactAnswersMatchesRepairEnumeration(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, d)", db.Dict)
	viaSynopsis, err := ExactAnswers(db, q)
	if err != nil {
		t.Fatal(err)
	}
	viaRepairs, err := repair.ExactAnswers(db, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaSynopsis) != len(viaRepairs) {
		t.Fatalf("synopsis route %d answers, repairs route %d", len(viaSynopsis), len(viaRepairs))
	}
	for i := range viaSynopsis {
		if !viaSynopsis[i].Tuple.Equal(viaRepairs[i].Tuple) {
			t.Fatalf("tuple order mismatch at %d", i)
		}
		if math.Abs(viaSynopsis[i].Freq-viaRepairs[i].Freq) > 1e-9 {
			t.Fatalf("freq mismatch for %v: %v vs %v",
				viaSynopsis[i].Tuple, viaSynopsis[i].Freq, viaRepairs[i].Freq)
		}
	}
}

func TestCertainAnswers(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(d) :- Employee(2, n, d)", db.Dict)
	certain, err := CertainAnswers(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(certain) != 1 || db.Dict.Render(certain[0][0]) != "IT" {
		t.Fatalf("certain = %v", certain)
	}
	got, err := repair.CertainAnswers(db, q, 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("repair route certain = %v, %v", got, err)
	}
}

func TestBudgetPropagates(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q() :- Employee(1, n1, d), Employee(2, n2, d)", db.Dict)
	opts := DefaultOptions()
	opts.Budget = estimator.Budget{MaxSamples: 3}
	_, _, err := apx(t, db, q, Natural, opts)
	if !errors.Is(err, estimator.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// TestPastDeadlineFailsEveryScheme: a context whose deadline passed
// before the run fails every scheme with ErrCanceled wrapping
// context.DeadlineExceeded, before any draw, in both tuple modes and both
// sampling modes, however few draws each tuple would take (the 64 tuples
// of manySmallSet draw too few to reach the estimators' own polls).
func TestPastDeadlineFailsEveryScheme(t *testing.T) {
	set := manySmallSet()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	for _, scheme := range Schemes {
		for _, m := range fourModes {
			opts := DefaultOptions()
			opts.TupleWorkers, opts.SamplingWorkers = m.tupleWorkers, m.samplingWorkers
			_, stats, err := ApxAnswersFromSetContext(ctx, set, scheme, opts)
			if !errors.Is(err, estimator.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%v, %s: err = %v, want ErrCanceled wrapping context.DeadlineExceeded", scheme, m.name, err)
			}
			if stats.Samples != 0 {
				t.Errorf("%v, %s: %d samples drawn past the deadline", scheme, m.name, stats.Samples)
			}
		}
	}
}

func TestUnknownSchemeRejected(t *testing.T) {
	pair := &synopsis.Admissible{
		BlockSizes: []int32{2},
		Images:     []synopsis.Image{{{Block: 0, Fact: 0}}},
	}
	set := &synopsis.Set{Entries: []synopsis.Entry{{Pair: pair}}}
	if _, _, err := ApxAnswersFromSetContext(context.Background(), set, Scheme(99), DefaultOptions()); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestSeedDeterminism(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, 'IT')", db.Dict)
	opts := DefaultOptions()
	opts.Seed = 77
	a, _, err := apx(t, db, q, KLM, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := apx(t, db, q, KLM, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Freq != b[i].Freq {
			t.Fatal("same seed produced different estimates")
		}
	}
}

// Property: on random small inconsistent databases, every scheme's
// estimate for every answer tuple is within the (ε, δ) band of the exact
// frequency most of the time. We check against a widened band so a single
// δ-probability miss cannot flake the suite, and count gross misses.
func TestSchemesAccuracyProperty(t *testing.T) {
	s := relation.MustSchema([]relation.RelDef{
		{Name: "R", Attrs: []string{"k", "v"}, KeyLen: 1},
		{Name: "S", Attrs: []string{"k", "v"}, KeyLen: 1},
	}, nil)
	gross := 0
	total := 0
	f := func(rs, ss []struct{ K, V uint8 }, seed uint16) bool {
		if len(rs) > 6 {
			rs = rs[:6]
		}
		if len(ss) > 6 {
			ss = ss[:6]
		}
		db := relation.NewDatabase(s)
		for _, p := range rs {
			db.MustInsert("R", int(p.K%3), int(p.V%3))
		}
		for _, p := range ss {
			db.MustInsert("S", int(p.K%3), int(p.V%3)+10)
		}
		q := cq.MustParse("Q(v) :- R(k, j), S(j, v)", db.Dict)
		set, err := synopsis.Build(db, q)
		if err != nil || len(set.Entries) == 0 {
			return true
		}
		exact, err := ExactAnswersFromSet(set, 0)
		if err != nil {
			return true
		}
		for _, scheme := range Schemes {
			opts := DefaultOptions()
			opts.Seed = uint64(seed) + uint64(scheme)*7919
			res, _, err := ApxAnswersFromSetContext(context.Background(), set, scheme, opts)
			if err != nil {
				return false
			}
			for i := range res {
				total++
				want := exact[i].Freq
				if math.Abs(res[i].Freq-want) > 0.25*want {
					gross++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	if total > 0 && float64(gross)/float64(total) > 0.05 {
		t.Fatalf("gross misses %d/%d exceed 5%%", gross, total)
	}
}
