package repair

import (
	"errors"
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"cqabench/internal/cq"
	"cqabench/internal/mt"
	"cqabench/internal/relation"
)

func employeeDB(t *testing.T) *relation.Database {
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

func TestCountExample(t *testing.T) {
	db := employeeDB(t)
	if got := Count(db); got.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("Count = %v, want 4", got)
	}
}

func TestEnumerateAllRepairs(t *testing.T) {
	db := employeeDB(t)
	n := 0
	err := EnumerateDatabases(db, 0, func(rep *relation.Database) error {
		n++
		if !relation.IsConsistentDB(rep) {
			t.Fatal("repair is inconsistent")
		}
		if rep.NumFacts() != 2 {
			t.Fatalf("repair has %d facts, want 2", rep.NumFacts())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("enumerated %d repairs, want 4", n)
	}
}

func TestEnumerateDistinct(t *testing.T) {
	db := employeeDB(t)
	seen := map[string]bool{}
	err := EnumerateDatabases(db, 0, func(rep *relation.Database) error {
		seen[rep.String()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("distinct repairs = %d, want 4", len(seen))
	}
}

func TestEnumerateLimit(t *testing.T) {
	db := employeeDB(t)
	err := Enumerate(db, 3, func([]relation.FactRef) error {
		t.Fatal("callback invoked despite limit")
		return nil
	})
	if !errors.Is(err, ErrTooManyRepairs) {
		t.Fatalf("err = %v, want ErrTooManyRepairs", err)
	}
}

func TestEnumerateStop(t *testing.T) {
	db := employeeDB(t)
	calls := 0
	err := Enumerate(db, 0, func([]relation.FactRef) error {
		calls++
		return ErrStop
	})
	if err != nil || calls != 1 {
		t.Fatalf("calls = %d err = %v", calls, err)
	}
}

func TestConsistentDatabaseHasOneRepair(t *testing.T) {
	s := relation.MustSchema([]relation.RelDef{
		{Name: "R", Attrs: []string{"k", "v"}, KeyLen: 1},
	}, nil)
	db := relation.NewDatabase(s)
	db.MustInsert("R", 1, 1)
	db.MustInsert("R", 2, 2)
	n := 0
	if err := EnumerateDatabases(db, 0, func(rep *relation.Database) error {
		n++
		if rep.NumFacts() != 2 {
			t.Fatal("repair of consistent DB must equal DB")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("repairs = %d, want 1", n)
	}
}

// Paper Example 1.1: the Boolean query "employees 1 and 2 work in the same
// department" is true in exactly 2 of the 4 repairs: frequency 0.5.
func TestExampleRelativeFrequency(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q() :- Employee(1, n1, d), Employee(2, n2, d)", db.Dict)
	f, err := ExactRelativeFreq(db, q, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f != 0.5 {
		t.Fatalf("relative frequency = %v, want 0.5", f)
	}
}

func TestExactRelativeFreqNonBoolean(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(2, n, d)", db.Dict)
	fAlice, err := ExactRelativeFreq(db, q, relation.Tuple{db.Dict.String("Alice")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fAlice != 0.5 {
		t.Fatalf("freq(Alice) = %v, want 0.5", fAlice)
	}
	// Bob works somewhere in every repair.
	qb := cq.MustParse("Q(n) :- Employee(1, n, d)", db.Dict)
	fBob, err := ExactRelativeFreq(db, qb, relation.Tuple{db.Dict.String("Bob")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fBob != 1 {
		t.Fatalf("freq(Bob) = %v, want 1", fBob)
	}
	// A name not in the database has frequency 0.
	fZed, err := ExactRelativeFreq(db, qb, relation.Tuple{db.Dict.String("Zed")}, 0)
	if err != nil || fZed != 0 {
		t.Fatalf("freq(Zed) = %v, %v; want 0", fZed, err)
	}
}

func TestExactRelativeFreqArityError(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(1, n, d)", db.Dict)
	if _, err := ExactRelativeFreq(db, q, relation.Tuple{1, 2}, 0); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestExactAnswers(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, 'IT')", db.Dict)
	ans, err := ExactAnswers(db, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Bob in IT: 1/2 of repairs. Alice: 1/2. Tim: 1/2.
	want := map[string]float64{"Bob": 0.5, "Alice": 0.5, "Tim": 0.5}
	if len(ans) != len(want) {
		t.Fatalf("answers = %d, want %d", len(ans), len(want))
	}
	for _, tf := range ans {
		name := db.Dict.Render(tf.Tuple[0])
		if w, ok := want[name]; !ok || math.Abs(tf.Freq-w) > 1e-12 {
			t.Fatalf("answer %s freq %v, want %v", name, tf.Freq, w)
		}
	}
}

func TestCertainAnswers(t *testing.T) {
	db := employeeDB(t)
	// Someone with id 2 works in IT in every repair (both Alice and Tim are IT).
	q := cq.MustParse("Q(d) :- Employee(2, n, d)", db.Dict)
	certain, err := CertainAnswers(db, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(certain) != 1 || db.Dict.Render(certain[0][0]) != "IT" {
		t.Fatalf("certain = %v", certain)
	}
	// Bob's department is uncertain: no certain answers.
	qb := cq.MustParse("Q(d) :- Employee(1, n, d)", db.Dict)
	certain, err = CertainAnswers(db, qb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(certain) != 0 {
		t.Fatalf("certain = %v, want none", certain)
	}
}

func TestSampleRepairValid(t *testing.T) {
	db := employeeDB(t)
	bi := relation.BuildBlocks(db)
	src := mt.New(1)
	for i := 0; i < 100; i++ {
		kept := SampleRepair(bi, src)
		if len(kept) != len(bi.Blocks) {
			t.Fatal("sample has wrong number of facts")
		}
		if !bi.SatisfiesKeys(kept) {
			t.Fatal("sampled repair inconsistent")
		}
	}
}

func TestSampleRepairUniform(t *testing.T) {
	db := employeeDB(t)
	bi := relation.BuildBlocks(db)
	src := mt.New(2)
	counts := map[string]int{}
	const draws = 40000
	for i := 0; i < draws; i++ {
		kept := SampleRepair(bi, src)
		key := ""
		for _, f := range kept {
			key += db.RenderFact(f) + ";"
		}
		counts[key]++
	}
	if len(counts) != 4 {
		t.Fatalf("distinct sampled repairs = %d, want 4", len(counts))
	}
	for k, c := range counts {
		p := float64(c) / draws
		if math.Abs(p-0.25) > 0.02 {
			t.Fatalf("repair %q frequency %.4f, want 0.25", k, p)
		}
	}
}

// Property: over random small databases, the sum over answer tuples is
// consistent — every exact frequency lies in (0,1] and equals the
// repair-count ratio.
func TestExactAnswersProperty(t *testing.T) {
	s := relation.MustSchema([]relation.RelDef{
		{Name: "R", Attrs: []string{"k", "v"}, KeyLen: 1},
	}, nil)
	f := func(pairs []struct{ K, V uint8 }) bool {
		if len(pairs) > 8 {
			pairs = pairs[:8]
		}
		db := relation.NewDatabase(s)
		for _, p := range pairs {
			db.MustInsert("R", int(p.K%3), int(p.V%3))
		}
		if db.NumFacts() == 0 {
			return true
		}
		q := cq.MustParse("Q(v) :- R(k, v)", db.Dict)
		ans, err := ExactAnswers(db, q, 0)
		if err != nil {
			return false
		}
		for _, tf := range ans {
			if tf.Freq <= 0 || tf.Freq > 1 {
				return false
			}
			direct, err := ExactRelativeFreq(db, q, tf.Tuple, 0)
			if err != nil || math.Abs(direct-tf.Freq) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
