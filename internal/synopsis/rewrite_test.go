package synopsis

import (
	"context"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"cqabench/internal/cq"
	"cqabench/internal/relation"
)

// assertSetsEquivalent checks two synopsis sets describe the same object
// up to the (irrelevant) renaming of block and member ids: same answer
// tuples, same dynamic parameters, and per entry the same image count,
// block-size multiset and exact ratio.
func assertSetsEquivalent(t *testing.T, a, b *Set) {
	t.Helper()
	if a.OutputSize() != b.OutputSize() {
		t.Fatalf("output sizes differ: %d vs %d", a.OutputSize(), b.OutputSize())
	}
	if a.HomomorphicSize != b.HomomorphicSize {
		t.Fatalf("homomorphic sizes differ: %d vs %d", a.HomomorphicSize, b.HomomorphicSize)
	}
	for i := range a.Entries {
		ea, eb := &a.Entries[i], &b.Entries[i]
		if !ea.Tuple.Equal(eb.Tuple) {
			t.Fatalf("entry %d tuples differ", i)
		}
		if ea.Pair.NumImages() != eb.Pair.NumImages() {
			t.Fatalf("entry %d |H| differ: %d vs %d", i, ea.Pair.NumImages(), eb.Pair.NumImages())
		}
		if ea.Pair.NumBlocks() != eb.Pair.NumBlocks() {
			t.Fatalf("entry %d |B| differ: %d vs %d", i, ea.Pair.NumBlocks(), eb.Pair.NumBlocks())
		}
		sa := append([]int32(nil), ea.Pair.BlockSizes...)
		sb := append([]int32(nil), eb.Pair.BlockSizes...)
		sort.Slice(sa, func(x, y int) bool { return sa[x] < sa[y] })
		sort.Slice(sb, func(x, y int) bool { return sb[x] < sb[y] })
		for k := range sa {
			if sa[k] != sb[k] {
				t.Fatalf("entry %d block-size multisets differ: %v vs %v", i, sa, sb)
			}
		}
		ra, err1 := ea.Pair.Exact(context.Background())
		rb, err2 := eb.Pair.Exact(context.Background())
		if err1 != nil || err2 != nil {
			continue
		}
		if math.Abs(ra-rb) > 1e-9 {
			t.Fatalf("entry %d ratios differ: %v vs %v", i, ra, rb)
		}
	}
}

func TestRewritingMatchesBuildExample(t *testing.T) {
	db := employeeDB(t)
	for _, text := range []string{
		"Q() :- Employee(1, n1, d), Employee(2, n2, d)",
		"Q(n) :- Employee(i, n, 'IT')",
		"Q(i, n) :- Employee(i, n, d)",
		"Q() :- Employee(1, n, d1), Employee(1, m, d2)",
	} {
		q := cq.MustParse(text, db.Dict)
		direct, err := Build(db, q)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		rew, err := BuildViaRewriting(db, q)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		assertSetsEquivalent(t, direct, rew)
	}
}

func TestRewritingEmptyResult(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q() :- Employee(99, n, d)", db.Dict)
	set, err := BuildViaRewriting(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if set.OutputSize() != 0 || set.HomomorphicSize != 0 {
		t.Fatalf("empty query: %+v", set)
	}
}

func TestRewritingInvalidQuery(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(x) :- Nope(x)", db.Dict)
	if _, err := BuildViaRewriting(db, q); err == nil {
		t.Fatal("invalid query accepted")
	}
}

// Property: the direct builder and the Appendix C rewriting pipeline agree
// on random small databases and a join query.
func TestRewritingMatchesBuildProperty(t *testing.T) {
	s := relation.MustSchema([]relation.RelDef{
		{Name: "R", Attrs: []string{"k", "v"}, KeyLen: 1},
		{Name: "S", Attrs: []string{"k", "v"}, KeyLen: 1},
	}, nil)
	f := func(rs, ss []struct{ K, V uint8 }) bool {
		if len(rs) > 7 {
			rs = rs[:7]
		}
		if len(ss) > 7 {
			ss = ss[:7]
		}
		db := relation.NewDatabase(s)
		for _, p := range rs {
			db.MustInsert("R", int(p.K%3), int(p.V%4))
		}
		for _, p := range ss {
			db.MustInsert("S", int(p.K%4), int(p.V%3)+10)
		}
		q := cq.MustParse("Q(v) :- R(k, j), S(j, v)", db.Dict)
		direct, err1 := Build(db, q)
		rew, err2 := BuildViaRewriting(db, q)
		if err1 != nil || err2 != nil {
			return false
		}
		if direct.OutputSize() != rew.OutputSize() || direct.HomomorphicSize != rew.HomomorphicSize {
			return false
		}
		for i := range direct.Entries {
			ra, e1 := direct.Entries[i].Pair.Exact(context.Background())
			rb, e2 := rew.Entries[i].Pair.Exact(context.Background())
			if e1 != nil || e2 != nil {
				continue
			}
			if math.Abs(ra-rb) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
