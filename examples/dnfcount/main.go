// Dnfcount demonstrates the DNF-counting substrate the CQA schemes come
// from (and that the paper's implementation extends): counting satisfying
// assignments of DNF formulas with the same four approximation schemes,
// plus the synopsis ↔ Block-DNF correspondence of Appendix E.
package main

import (
	"context"
	"fmt"
	"log"

	"cqabench/internal/cq"
	"cqabench/internal/cqa"
	"cqabench/internal/dnf"
	"cqabench/internal/relation"
	"cqabench/internal/synopsis"
)

func main() {
	// A classic DNF over 12 boolean variables:
	// (x1 ∧ x2) ∨ (¬x3 ∧ x4 ∧ x5) ∨ (x6 ∧ ¬x7) ∨ (x8 ∧ x9 ∧ x10 ∧ ¬x11) ∨ x12.
	boolean := &dnf.Boolean{
		NumVars: 12,
		Clauses: [][]int{
			{1, 2},
			{-3, 4, 5},
			{6, -7},
			{8, 9, 10, -11},
			{12},
		},
	}
	exact, err := boolean.CountSatisfying(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DNF over %d variables, %d clauses\n", boolean.NumVars, len(boolean.Clauses))
	fmt.Printf("exact satisfying assignments: %s of %d\n", exact, 1<<boolean.NumVars)

	fmt.Println("\napproximate counts (eps=0.05, delta=0.1):")
	for _, s := range cqa.Schemes {
		c, err := boolean.ApproxCountSatisfying(s, 0.05, 0.1, 42)
		if err != nil {
			log.Fatal(err)
		}
		v, _ := c.Float64()
		fmt.Printf("  %-8s %8.1f\n", s, v)
	}

	// The Appendix E correspondence, in the other direction: a database
	// synopsis IS a Block DNF formula. Build one from an inconsistent
	// database and count it as a formula.
	schema := relation.MustSchema([]relation.RelDef{
		{Name: "R", Attrs: []string{"k", "v"}, KeyLen: 1},
	}, nil)
	db := relation.NewDatabase(schema)
	for k := 0; k < 4; k++ {
		db.MustInsert("R", k, 0)
		db.MustInsert("R", k, 1) // every key conflicted: 16 repairs
	}
	q := cq.MustParse("Q() :- R(k, 0)", db.Dict)
	set, err := synopsis.Build(db, q)
	if err != nil {
		log.Fatal(err)
	}
	pair := set.Entries[0].Pair
	formula, err := dnf.FromAdmissible(pair)
	if err != nil {
		log.Fatal(err)
	}
	rViaCQA, err := pair.Exact(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	rViaDNF, err := formula.ExactFraction(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsynopsis as Block DNF: %d blocks, %d clauses\n", len(formula.BlockSizes), len(formula.Clauses))
	fmt.Printf("relative frequency via CQA machinery: %.4f\n", rViaCQA)
	fmt.Printf("satisfying fraction via DNF machinery: %.4f\n", rViaDNF)
}
