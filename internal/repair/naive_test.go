package repair

import (
	"errors"
	"math"
	"testing"

	"cqabench/internal/cq"
	"cqabench/internal/estimator"
	"cqabench/internal/mt"
	"cqabench/internal/relation"
)

func TestNaiveNaturalFreqMatchesExact(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q() :- Employee(1, n1, d), Employee(2, n2, d)", db.Dict)
	r, err := NaiveNaturalFreq(db, q, nil, 0.1, 0.25, mt.New(1), estimator.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Estimate-0.5) > 0.05 {
		t.Fatalf("estimate = %v, want 0.5", r.Estimate)
	}
	if r.Samples == 0 {
		t.Fatal("no samples drawn")
	}
}

func TestNaiveNaturalFreqNonBoolean(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(2, n, d)", db.Dict)
	r, err := NaiveNaturalFreq(db, q, relation.Tuple{db.Dict.String("Alice")}, 0.1, 0.25, mt.New(2), estimator.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Estimate-0.5) > 0.05 {
		t.Fatalf("estimate = %v, want 0.5", r.Estimate)
	}
}

func TestNaiveNaturalFreqZero(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(2, n, d)", db.Dict)
	_, err := NaiveNaturalFreq(db, q, relation.Tuple{db.Dict.String("Zed")}, 0.1, 0.25, mt.New(3), estimator.Budget{})
	if !errors.Is(err, ErrFreqZero) {
		t.Fatalf("err = %v, want ErrFreqZero", err)
	}
}

func TestNaiveNaturalFreqArityError(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(2, n, d)", db.Dict)
	if _, err := NaiveNaturalFreq(db, q, relation.Tuple{1, 2}, 0.1, 0.25, mt.New(4), estimator.Budget{}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestNaiveNaturalFreqBudget(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q() :- Employee(1, n1, d), Employee(2, n2, d)", db.Dict)
	_, err := NaiveNaturalFreq(db, q, nil, 0.05, 0.05, mt.New(5), estimator.Budget{MaxSamples: 3})
	if !errors.Is(err, estimator.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}
