package synopsis

import (
	"errors"
	"math"
	"slices"
	"testing"

	"cqabench/internal/cq"
	"cqabench/internal/relation"
)

func TestStreamMatchesBuild(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, d)", db.Dict)
	built, err := Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Entry
	if err := Stream(db, q, func(e Entry) error {
		streamed = append(streamed, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(built.Entries) {
		t.Fatalf("streamed %d entries, built %d", len(streamed), len(built.Entries))
	}
	for i := range streamed {
		if !streamed[i].Tuple.Equal(built.Entries[i].Tuple) {
			t.Fatalf("entry %d tuple mismatch", i)
		}
		rs, err := streamed[i].Pair.ExactRatio(0)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := built.Entries[i].Pair.ExactRatio(0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rs-rb) > 1e-12 {
			t.Fatalf("entry %d ratio mismatch: %v vs %v", i, rs, rb)
		}
		if len(streamed[i].Facts) != len(built.Entries[i].Facts) {
			t.Fatalf("entry %d fact sets differ", i)
		}
	}
}

func TestStreamOrdered(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(i, n) :- Employee(i, n, d)", db.Dict)
	var prev relation.Tuple
	if err := Stream(db, q, func(e Entry) error {
		if prev != nil && !prev.Less(e.Tuple) {
			t.Fatalf("entries out of order: %v then %v", prev, e.Tuple)
		}
		prev = slices.Clone(e.Tuple)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamEarlyStop(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, d)", db.Dict)
	calls := 0
	if err := Stream(db, q, func(Entry) error {
		calls++
		return ErrStop
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after ErrStop", calls)
	}
}

func TestStreamCallbackError(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, d)", db.Dict)
	boom := errors.New("boom")
	err := Stream(db, q, func(Entry) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestStreamEmptyQuery(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(99, n, d)", db.Dict)
	if err := Stream(db, q, func(Entry) error {
		t.Fatal("callback for empty result")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
