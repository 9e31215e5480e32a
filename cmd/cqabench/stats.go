package main

import (
	"flag"
	"fmt"

	"cqabench/internal/cq"
	"cqabench/internal/engine"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
	"cqabench/internal/synopsis"
)

// cmdStats reports inconsistency statistics of a database — per-relation
// fact and conflict-block counts, block-size distribution, repair count —
// and, given a query, the dynamic query parameters of Section 6.1 (output
// size, homomorphic size, balance).
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	benchmark := fs.String("benchmark", "tpch", "tpch or tpcds")
	schemaPath := fs.String("schema", "", "schema DSL file (overrides -benchmark)")
	in := fs.String("in", "", "input database file")
	queryText := fs.String("query", "", "optional CQ for dynamic parameters")
	explain := fs.Bool("explain", false, "also print the query's join plan")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("stats requires -in")
	}
	if err := checkFlagUse("stats", setFlags(fs)); err != nil {
		return err
	}
	db, err := scenario.LoadDB(*in, *benchmark, *schemaPath)
	if err != nil {
		return err
	}

	rep := relation.MeasureInconsistency(db)
	fmt.Print(rep.String())
	fmt.Printf("\n%-16s %10s %12s %10s %12s\n", "relation", "facts", "conflicts", "max block", "in conflict")
	for _, pr := range rep.PerRelation {
		fmt.Printf("%-16s %10d %12d %10d %12d\n",
			pr.Relation, pr.Facts, pr.ConflictBlocks, pr.MaxBlockSize, pr.FactsInConflict)
	}

	if *queryText == "" {
		return nil
	}
	q, err := parseQueryFor(db, *queryText)
	if err != nil {
		return err
	}
	set, err := synopsis.Build(db, q)
	if err != nil {
		return err
	}
	fmt.Printf("\nquery: %s\n", q.Render(db.Dict))
	fmt.Printf("joins: %d, constants: %d, boolean: %v\n", q.NumJoins(), q.NumConstants(), q.IsBoolean())
	fmt.Printf("output size |syn|: %d\n", set.OutputSize())
	fmt.Printf("homomorphic size |∪H|: %d\n", set.HomomorphicSize)
	fmt.Printf("balance: %.4f (avg synopsis size %.2f)\n", set.Balance(), set.AvgSynopsisSize())
	if *explain {
		plan, err := engineExplain(db, q)
		if err != nil {
			return err
		}
		fmt.Printf("\njoin plan:\n%s", plan)
	}
	return nil
}

// engineExplain renders the evaluator's join plan for the query.
func engineExplain(db *relation.Database, q *cq.Query) (string, error) {
	return engine.NewEvaluator(db).ExplainString(q)
}
