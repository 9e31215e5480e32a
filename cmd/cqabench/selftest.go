package main

import (
	"context"
	"flag"
	"fmt"
	"math"

	"cqabench/internal/cq"
	"cqabench/internal/cqa"
	"cqabench/internal/mt"
	"cqabench/internal/relation"
	"cqabench/internal/repair"
	"cqabench/internal/synopsis"
)

// cmdSelftest verifies an installation end to end in seconds: the PRNG
// against the canonical MT19937-64 vector, the paper's Example 1.1
// through repairs, exact frequencies, and all four approximation schemes.
func cmdSelftest(args []string) error {
	fs := flag.NewFlagSet("selftest", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fail := 0
	check := func(name string, ok bool, detail string) {
		status := "ok"
		if !ok {
			status = "FAIL"
			fail++
		}
		fmt.Printf("%-44s %s", name, status)
		if detail != "" && !ok {
			fmt.Printf("  (%s)", detail)
		}
		fmt.Println()
	}

	// 1. PRNG reference vector.
	src := mt.New(mt.DefaultSeed)
	check("mt19937-64 reference stream", src.Uint64() == 14514284786278117030, "first output mismatch")

	// 2. Example 1.1.
	schema := relation.MustSchema([]relation.RelDef{
		{Name: "Employee", Attrs: []string{"id", "name", "dept"}, KeyLen: 1},
	}, nil)
	db := relation.NewDatabase(schema)
	db.MustInsert("Employee", 1, "Bob", "HR")
	db.MustInsert("Employee", 1, "Bob", "IT")
	db.MustInsert("Employee", 2, "Alice", "IT")
	db.MustInsert("Employee", 2, "Tim", "IT")
	check("block decomposition", !relation.IsConsistentDB(db), "example DB should be inconsistent")
	check("repair count", repair.Count(db).Int64() == 4, "want 4 repairs")

	q := cq.MustParse("Q() :- Employee(1, n1, d), Employee(2, n2, d)", db.Dict)
	exact, err := repair.ExactRelativeFreq(db, q, nil, 0)
	check("exact relative frequency (repairs)", err == nil && exact == 0.5,
		fmt.Sprintf("got %v, %v", exact, err))

	synExact, err := cqa.ExactAnswers(db, q, 0)
	check("exact relative frequency (synopsis)",
		err == nil && len(synExact) == 1 && math.Abs(synExact[0].Freq-0.5) < 1e-12,
		fmt.Sprintf("%v, %v", synExact, err))

	// 3. The four schemes within the (eps, delta) band.
	set, err := synopsis.Build(db, q)
	if err != nil {
		return err
	}
	for _, scheme := range cqa.Schemes {
		res, _, err := cqa.ApxAnswersFromSetContext(context.Background(), set, scheme, cqa.DefaultOptions())
		ok := err == nil && len(res) == 1 && math.Abs(res[0].Freq-0.5) <= 0.06
		detail := ""
		if err != nil {
			detail = err.Error()
		} else if len(res) == 1 {
			detail = fmt.Sprintf("freq %v", res[0].Freq)
		}
		check(fmt.Sprintf("scheme %v on Example 1.1", scheme), ok, detail)
	}

	if fail > 0 {
		return fmt.Errorf("%d selftest check(s) failed", fail)
	}
	fmt.Println("all checks passed")
	return nil
}
