package engine

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"cqabench/internal/cq"
	"cqabench/internal/relation"
)

func twoRelSchema() *relation.Schema {
	return relation.MustSchema([]relation.RelDef{
		{Name: "R", Attrs: []string{"a", "b"}, KeyLen: 1},
		{Name: "S", Attrs: []string{"x", "y"}, KeyLen: 1},
	}, nil)
}

func smallDB(t *testing.T) *relation.Database {
	t.Helper()
	db := relation.NewDatabase(twoRelSchema())
	db.MustInsert("R", 1, 10)
	db.MustInsert("R", 2, 10)
	db.MustInsert("R", 3, 20)
	db.MustInsert("S", 10, 100)
	db.MustInsert("S", 20, 200)
	db.MustInsert("S", 20, 300) // key conflict in S: block of size 2
	return db
}

func collect(t *testing.T, e *Evaluator, q *cq.Query) []Homomorphism {
	t.Helper()
	var out []Homomorphism
	err := e.EnumerateHomomorphisms(q, func(h *Homomorphism) error {
		out = append(out, Homomorphism{
			Assign:  append([]relation.Value(nil), h.Assign...),
			PerAtom: append([]relation.FactRef(nil), h.PerAtom...),
			Image:   append([]relation.FactRef(nil), h.Image...),
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSingleAtomScan(t *testing.T) {
	db := smallDB(t)
	e := NewEvaluator(db)
	q := cq.MustParse("Q(a, b) :- R(a, b)", db.Dict)
	hs := collect(t, e, q)
	if len(hs) != 3 {
		t.Fatalf("homomorphisms = %d, want 3", len(hs))
	}
}

func TestConstantFilter(t *testing.T) {
	db := smallDB(t)
	e := NewEvaluator(db)
	q := cq.MustParse("Q(a) :- R(a, 10)", db.Dict)
	hs := collect(t, e, q)
	if len(hs) != 2 {
		t.Fatalf("homomorphisms = %d, want 2", len(hs))
	}
}

func TestJoin(t *testing.T) {
	db := smallDB(t)
	e := NewEvaluator(db)
	q := cq.MustParse("Q(a, y) :- R(a, b), S(b, y)", db.Dict)
	hs := collect(t, e, q)
	// R(1,10)-S(10,100), R(2,10)-S(10,100), R(3,20)-S(20,200), R(3,20)-S(20,300)
	if len(hs) != 4 {
		t.Fatalf("homomorphisms = %d, want 4", len(hs))
	}
	for _, h := range hs {
		if len(h.Image) != 2 {
			t.Fatalf("join image size = %d, want 2", len(h.Image))
		}
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	db := relation.NewDatabase(twoRelSchema())
	db.MustInsert("S", 5, 5)
	db.MustInsert("S", 5, 6)
	e := NewEvaluator(db)
	q := cq.MustParse("Q(x) :- S(x, x)", db.Dict)
	hs := collect(t, e, q)
	if len(hs) != 1 || hs[0].Assign[0] != db.Dict.Int(5) {
		t.Fatalf("repeated-var match wrong: %v", hs)
	}
}

func TestSelfJoinImageDeduped(t *testing.T) {
	db := relation.NewDatabase(twoRelSchema())
	db.MustInsert("S", 1, 2)
	e := NewEvaluator(db)
	// Both atoms can map to the same fact; the image must contain it once.
	q := cq.MustParse("Q() :- S(x, y), S(x, z)", db.Dict)
	hs := collect(t, e, q)
	if len(hs) != 1 {
		t.Fatalf("homomorphisms = %d, want 1", len(hs))
	}
	if len(hs[0].Image) != 1 {
		t.Fatalf("image = %v, want single fact", hs[0].Image)
	}
}

func TestAnswersDistinct(t *testing.T) {
	db := smallDB(t)
	e := NewEvaluator(db)
	q := cq.MustParse("Q(b) :- R(a, b)", db.Dict)
	ans, err := e.Answers(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 { // 10 and 20
		t.Fatalf("answers = %v, want 2 distinct", ans)
	}
	if !ans[0].Less(ans[1]) {
		t.Fatal("answers not sorted")
	}
}

func TestBooleanAnswer(t *testing.T) {
	db := smallDB(t)
	e := NewEvaluator(db)
	q := cq.MustParse("Q() :- R(a, b), S(b, y)", db.Dict)
	ans, err := e.Answers(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || len(ans[0]) != 0 {
		t.Fatalf("Boolean answers = %v, want one empty tuple", ans)
	}
	qNo := cq.MustParse("Q() :- R(a, 999)", db.Dict)
	ans, err = e.Answers(qNo)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 0 {
		t.Fatalf("unsatisfied Boolean query returned %v", ans)
	}
}

func TestHasAnswer(t *testing.T) {
	db := smallDB(t)
	e := NewEvaluator(db)
	q := cq.MustParse("Q(a) :- R(a, 10)", db.Dict)
	ok, err := e.HasAnswer(q, relation.Tuple{db.Dict.Int(1)})
	if err != nil || !ok {
		t.Fatalf("HasAnswer(1) = %v, %v", ok, err)
	}
	ok, err = e.HasAnswer(q, relation.Tuple{db.Dict.Int(3)})
	if err != nil || ok {
		t.Fatalf("HasAnswer(3) = %v, %v", ok, err)
	}
	if _, err := e.HasAnswer(q, relation.Tuple{1, 2}); err == nil {
		t.Fatal("arity mismatch should error")
	}
}

func TestEarlyStop(t *testing.T) {
	db := smallDB(t)
	e := NewEvaluator(db)
	q := cq.MustParse("Q(a, b) :- R(a, b)", db.Dict)
	calls := 0
	err := e.EnumerateHomomorphisms(q, func(*Homomorphism) error {
		calls++
		return ErrStop
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after ErrStop", calls)
	}
}

func TestCallbackErrorPropagates(t *testing.T) {
	db := smallDB(t)
	e := NewEvaluator(db)
	q := cq.MustParse("Q(a, b) :- R(a, b)", db.Dict)
	boom := errors.New("boom")
	err := e.EnumerateHomomorphisms(q, func(*Homomorphism) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	db := smallDB(t)
	e := NewEvaluator(db)
	q := cq.MustParse("Q(x) :- T(x, y)", db.Dict)
	if err := e.EnumerateHomomorphisms(q, func(*Homomorphism) error { return nil }); err == nil {
		t.Fatal("invalid query accepted")
	}
}

func TestCountHomomorphisms(t *testing.T) {
	db := smallDB(t)
	e := NewEvaluator(db)
	q := cq.MustParse("Q() :- R(a, b), S(b, y)", db.Dict)
	n, _, err := e.CountHomomorphismsUpTo(q, math.MaxInt)
	if err != nil || n != 4 {
		t.Fatalf("homomorphisms = %d, %v; want 4", n, err)
	}
}

func TestCartesianProduct(t *testing.T) {
	db := smallDB(t)
	e := NewEvaluator(db)
	q := cq.MustParse("Q() :- R(a, b), S(x, y)", db.Dict)
	n, _, err := e.CountHomomorphismsUpTo(q, math.MaxInt)
	if err != nil || n != 9 {
		t.Fatalf("cross product homs = %d, %v; want 9", n, err)
	}
}

func TestIndexReuseAcrossQueries(t *testing.T) {
	db := smallDB(t)
	e := NewEvaluator(db)
	q := cq.MustParse("Q(a) :- R(a, 10)", db.Dict)
	for i := 0; i < 3; i++ {
		hs := collect(t, e, q)
		if len(hs) != 2 {
			t.Fatalf("run %d: %d homomorphisms", i, len(hs))
		}
	}
	if len(e.indexes) == 0 {
		t.Fatal("no indexes cached")
	}
}

// randomQuery builds a random small CQ over the two-relation schema from
// byte seeds, possibly with constants and repeated variables.
func randomQuery(seed []byte, dict *relation.Dict) *cq.Query {
	if len(seed) == 0 {
		seed = []byte{0}
	}
	nAtoms := int(seed[0]%3) + 1
	q := &cq.Query{NumVars: 4, VarNames: []string{"x", "y", "z", "w"}}
	pos := 1
	next := func() byte {
		if pos >= len(seed) {
			pos = 0
		}
		b := seed[pos]
		pos++
		return b
	}
	for i := 0; i < nAtoms; i++ {
		rel := "R"
		arity := 2
		if next()%2 == 0 {
			rel = "S"
		}
		args := make([]cq.Term, arity)
		for j := range args {
			b := next()
			if b%4 == 0 {
				args[j] = cq.C(dict.Int(int64(b % 30)))
			} else {
				args[j] = cq.V(int(b) % 4)
			}
		}
		q.Atoms = append(q.Atoms, cq.Atom{Rel: rel, Args: args})
	}
	// Ensure every declared variable occurs: shrink NumVars to used ones by
	// remapping.
	used := map[int]int{}
	for ai := range q.Atoms {
		for ti, t := range q.Atoms[ai].Args {
			if t.IsVar {
				id, ok := used[t.Var]
				if !ok {
					id = len(used)
					used[t.Var] = id
				}
				q.Atoms[ai].Args[ti] = cq.V(id)
			}
		}
	}
	q.NumVars = len(used)
	q.VarNames = q.VarNames[:0]
	for i := 0; i < q.NumVars; i++ {
		q.VarNames = append(q.VarNames, fmt.Sprintf("h%d", i))
	}
	// Output: first variable if any.
	if q.NumVars > 0 && next()%2 == 0 {
		q.Out = []int{0}
	}
	return q
}

func randomDB(seed []byte) *relation.Database {
	db := relation.NewDatabase(twoRelSchema())
	for i := 0; i+2 < len(seed); i += 3 {
		rel := "R"
		if seed[i]%2 == 1 {
			rel = "S"
		}
		db.MustInsert(rel, int(seed[i+1]%8), int(seed[i+2]%8)+10)
	}
	return db
}

// Property: the indexed engine enumerates exactly the same assignment
// multiset as the naive nested-loop oracle.
func TestEngineMatchesNaiveProperty(t *testing.T) {
	f := func(dbSeed, qSeed []byte) bool {
		db := randomDB(dbSeed)
		q := randomQuery(qSeed, db.Dict)
		if q.NumVars == 0 {
			return true // degenerate: all-constant query; covered elsewhere
		}
		want, err := NaiveHomomorphisms(db, q)
		if err != nil {
			return true // invalid random query: skip
		}
		e := NewEvaluator(db)
		var got [][]relation.Value
		err = e.EnumerateHomomorphisms(q, func(h *Homomorphism) error {
			got = append(got, append([]relation.Value(nil), h.Assign...))
			return nil
		})
		if err != nil {
			return false
		}
		sortAssignments(got)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if !relation.Tuple(got[i]).Equal(relation.Tuple(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAllConstantAtom(t *testing.T) {
	db := smallDB(t)
	e := NewEvaluator(db)
	q := cq.MustParse("Q() :- R(1, 10), S(x, y)", db.Dict)
	n, _, err := e.CountHomomorphismsUpTo(q, math.MaxInt)
	if err != nil || n != 3 {
		t.Fatalf("constant-atom homs = %d, %v; want 3", n, err)
	}
}

func BenchmarkJoinEnumeration(b *testing.B) {
	db := relation.NewDatabase(twoRelSchema())
	for i := 0; i < 1000; i++ {
		db.MustInsert("R", i, i%100)
		db.MustInsert("S", i%100, i)
	}
	e := NewEvaluator(db)
	q := cq.MustParse("Q(a, y) :- R(a, b), S(b, y)", db.Dict)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _, err := e.CountHomomorphismsUpTo(q, math.MaxInt)
		if err != nil || n == 0 {
			b.Fatal(n, err)
		}
	}
}

// Permuting the body atoms must not change the homomorphism multiset: the
// greedy planner may pick a different order, but the semantics are
// order-free.
func TestAtomOrderInvarianceProperty(t *testing.T) {
	f := func(dbSeed, qSeed []byte, rotate uint8) bool {
		db := randomDB(dbSeed)
		q := randomQuery(qSeed, db.Dict)
		if len(q.Atoms) < 2 {
			return true
		}
		// Rotate the atom list.
		r := int(rotate) % len(q.Atoms)
		perm := &cq.Query{
			Atoms:    append(append([]cq.Atom(nil), q.Atoms[r:]...), q.Atoms[:r]...),
			Out:      q.Out,
			NumVars:  q.NumVars,
			VarNames: q.VarNames,
		}
		count := func(query *cq.Query) (int, bool) {
			n, _, err := NewEvaluator(db).CountHomomorphismsUpTo(query, math.MaxInt)
			return n, err == nil
		}
		n1, ok1 := count(q)
		n2, ok2 := count(perm)
		if ok1 != ok2 {
			return false
		}
		return !ok1 || n1 == n2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
