package cqabench_test

import (
	"context"
	"fmt"
	"sort"

	"cqabench"
)

// The paper's Example 1.1: an inconsistent Employee relation and the
// Boolean query "do employees 1 and 2 work in the same department?".
func Example() {
	db := cqabench.NewDatabase(cqabench.MustSchema([]cqabench.RelDef{
		{Name: "Employee", Attrs: []string{"id", "name", "dept"}, KeyLen: 1},
	}, nil))
	db.MustInsert("Employee", 1, "Bob", "HR")
	db.MustInsert("Employee", 1, "Bob", "IT")
	db.MustInsert("Employee", 2, "Alice", "IT")
	db.MustInsert("Employee", 2, "Tim", "IT")

	fmt.Println("consistent:", cqabench.IsConsistent(db))
	fmt.Println("repairs:", cqabench.CountRepairs(db))

	q := cqabench.MustParseQuery("Q() :- Employee(1, n1, d), Employee(2, n2, d)", db)
	exact, _ := cqabench.ExactAnswers(db, q)
	fmt.Printf("relative frequency: %.2f\n", exact[0].Freq)
	// Output:
	// consistent: false
	// repairs: 4
	// relative frequency: 0.50
}

// Certain answers are the classic CQA semantics: tuples true in every
// repair (relative frequency exactly 1).
func ExampleCertainAnswers() {
	db := cqabench.NewDatabase(cqabench.MustSchema([]cqabench.RelDef{
		{Name: "Employee", Attrs: []string{"id", "name", "dept"}, KeyLen: 1},
	}, nil))
	db.MustInsert("Employee", 2, "Alice", "IT")
	db.MustInsert("Employee", 2, "Tim", "IT")

	q := cqabench.MustParseQuery("Q(d) :- Employee(2, n, d)", db)
	certain, _ := cqabench.CertainAnswers(db, q)
	for _, t := range certain {
		fmt.Println(db.Dict.Render(t[0]))
	}
	// Output:
	// IT
}

// The synopsis is computed once and shared across schemes (Section 5);
// the balance of the query decides which scheme the paper recommends.
func ExampleSelectScheme() {
	db := cqabench.NewDatabase(cqabench.MustSchema([]cqabench.RelDef{
		{Name: "R", Attrs: []string{"k", "v"}, KeyLen: 1},
	}, nil))
	for k := 0; k < 16; k++ {
		db.MustInsert("R", k, 0)
		db.MustInsert("R", k, 1)
	}
	boolean := cqabench.MustParseQuery("Q() :- R(k, 0)", db)
	set, _ := cqabench.BuildSynopsisContext(context.Background(), db, boolean)
	fmt.Println("boolean query:", cqabench.SelectScheme(set))

	open := cqabench.MustParseQuery("Q(k) :- R(k, 0)", db)
	set2, _ := cqabench.BuildSynopsisContext(context.Background(), db, open)
	fmt.Println("open query:", cqabench.SelectScheme(set2))
	// Output:
	// boolean query: Natural
	// open query: KLM
}

// Queries parse from a datalog-style syntax and support minimization.
func ExampleMinimizeQuery() {
	db := cqabench.NewDatabase(cqabench.MustSchema([]cqabench.RelDef{
		{Name: "E", Attrs: []string{"src", "dst"}, KeyLen: 1},
	}, nil))
	q := cqabench.MustParseQuery("Q(x) :- E(x, y), E(x, z)", db)
	m, _ := cqabench.MinimizeQuery(db, q)
	fmt.Println(len(q.Atoms), "->", len(m.Atoms), "atoms")
	// Output:
	// 2 -> 1 atoms
}

// ApplyNoise injects query-aware inconsistency into consistent data.
func ExampleApplyNoise() {
	db, _ := cqabench.GenerateTPCH(0.0002, 1)
	q := cqabench.MustParseQuery("Q(n) :- region(k, n, c)", db)
	noisy, _ := cqabench.ApplyNoise(db, q, cqabench.DefaultNoise(1.0))
	fmt.Println("before:", cqabench.IsConsistent(db), "after:", cqabench.IsConsistent(noisy))
	// Output:
	// before: true after: false
}

// The synopsis is built once, then a scheme estimates every answer
// tuple's relative frequency from it.
func ExampleApproximateContext() {
	db := cqabench.NewDatabase(cqabench.MustSchema([]cqabench.RelDef{
		{Name: "Product", Attrs: []string{"sku", "price"}, KeyLen: 1},
	}, nil))
	db.MustInsert("Product", 1, 10)
	db.MustInsert("Product", 1, 12) // two sources disagree on the price
	db.MustInsert("Product", 2, 20)

	q := cqabench.MustParseQuery("Q(p) :- Product(s, p)", db)
	ctx := context.Background()
	set, _ := cqabench.BuildSynopsisContext(ctx, db, q)
	res, _, _ := cqabench.ApproximateContext(ctx, set, cqabench.KLM, cqabench.DefaultOptions())
	sort.Slice(res, func(i, j int) bool { return res[i].Tuple.Less(res[j].Tuple) })
	for _, tf := range res {
		fmt.Printf("price %s: %.1f\n", db.Dict.Render(tf.Tuple[0]), tf.Freq)
	}
	// Output:
	// price 10: 0.5
	// price 12: 0.5
	// price 20: 1.0
}
