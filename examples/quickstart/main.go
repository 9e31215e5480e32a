// Quickstart reproduces Example 1.1 of the paper end to end: an
// inconsistent Employee database, its four repairs, the relative frequency
// of the query "do employees 1 and 2 work in the same department?", and
// the four approximation schemes recovering that frequency.
package main

import (
	"context"
	"fmt"
	"log"

	"cqabench/internal/cq"
	"cqabench/internal/cqa"
	"cqabench/internal/relation"
	"cqabench/internal/repair"
	"cqabench/internal/synopsis"
)

func main() {
	// The schema: Employee(id, name, dept) with key(Employee) = {id}.
	schema := relation.MustSchema([]relation.RelDef{
		{Name: "Employee", Attrs: []string{"id", "name", "dept"}, KeyLen: 1},
	}, nil)

	// The inconsistent database of Example 1.1: Bob's department is
	// uncertain, and so is the name of employee 2.
	db := relation.NewDatabase(schema)
	db.MustInsert("Employee", 1, "Bob", "HR")
	db.MustInsert("Employee", 1, "Bob", "IT")
	db.MustInsert("Employee", 2, "Alice", "IT")
	db.MustInsert("Employee", 2, "Tim", "IT")

	fmt.Println("Database:")
	fmt.Print(db)
	fmt.Println("Consistent:", relation.IsConsistentDB(db))
	fmt.Println("Repairs:", repair.Count(db))

	fmt.Println("\nAll repairs:")
	n := 0
	err := repair.EnumerateDatabases(db, 0, func(rep *relation.Database) error {
		n++
		fmt.Printf("-- repair %d --\n%s", n, rep)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// The Boolean query: employees 1 and 2 work in the same department.
	q := cq.MustParse("Q() :- Employee(1, n1, d), Employee(2, n2, d)", db.Dict)
	fmt.Println("\nQuery:", q.Render(db.Dict))

	exact, err := repair.ExactRelativeFreq(db, q, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Exact relative frequency (by repair enumeration): %.2f\n", exact)

	// Certain answers say only "not entailed"; the relative frequency says
	// "true in half the repairs" — the paper's motivating distinction.
	// The synopsis is built once and shared by every scheme (Section 5).
	set, err := synopsis.Build(db, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nApproximation schemes (eps=0.1, delta=0.25):")
	for _, scheme := range cqa.Schemes {
		res, stats, err := cqa.ApxAnswersFromSetContext(context.Background(), set, scheme, cqa.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		freq := 0.0
		if len(res) > 0 {
			freq = res[0].Freq
		}
		fmt.Printf("  %-8s freq=%.4f  samples=%d  time=%s\n",
			scheme, freq, stats.Samples, stats.Elapsed.Round(1000))
	}
}
