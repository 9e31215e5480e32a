package cqa

import (
	"context"
	"math"
	"testing"

	"cqabench/internal/cq"
	"cqabench/internal/synopsis"
)

func TestSelectSchemeBoolean(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q() :- Employee(i, n, 'IT')", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	// Boolean with 3 images in one synopsis: balance 1/3 > threshold...
	// small example: verify the dispatch logic against the actual balance.
	want := KLM
	if set.Balance() < 0.1 {
		want = Natural
	}
	if got := SelectScheme(set); got != want {
		t.Fatalf("SelectScheme = %v, balance %v", got, set.Balance())
	}
}

func TestSelectSchemeLowBalance(t *testing.T) {
	// Construct a set with many images per answer tuple: balance << 0.1.
	set := &synopsis.Set{HomomorphicSize: 100}
	pair := &synopsis.Admissible{
		BlockSizes: []int32{2},
		Images:     []synopsis.Image{{{Block: 0, Fact: 0}}},
	}
	pair.Canonicalize()
	set.Entries = []synopsis.Entry{{Pair: pair}}
	if got := SelectScheme(set); got != Natural {
		t.Fatalf("low balance should select Natural, got %v", got)
	}
	// High balance: one image per answer.
	high := &synopsis.Set{HomomorphicSize: 5}
	for i := 0; i < 5; i++ {
		high.Entries = append(high.Entries, synopsis.Entry{Pair: pair})
	}
	if got := SelectScheme(high); got != KLM {
		t.Fatalf("high balance should select KLM, got %v", got)
	}
}

// The scheme SelectScheme indicates answers every tuple plausibly.
func TestAutoAnswers(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, 'IT')", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := ApxAnswersFromSetContext(context.Background(), set, SelectScheme(set), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || stats.Samples == 0 {
		t.Fatalf("res=%d stats=%+v", len(res), stats)
	}
	for _, tf := range res {
		if math.Abs(tf.Freq-0.5) > 0.08 && math.Abs(tf.Freq-1) > 0.08 {
			t.Fatalf("freq %v implausible", tf.Freq)
		}
	}
}
