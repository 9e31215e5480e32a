package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/estimator"
	"cqabench/internal/synopsis"
)

// cmdCompare runs all four schemes (plus the exact baseline where
// tractable) on one query and prints a per-tuple comparison table — the
// quickest way to see which scheme the data at hand favors, and whether
// the estimates agree.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchmark := fs.String("benchmark", "tpch", "tpch or tpcds")
	schemaPath := fs.String("schema", "", "schema DSL file (overrides -benchmark)")
	in := fs.String("in", "", "input database file")
	queryText := fs.String("query", "", "conjunctive query")
	eps := fs.Float64("eps", 0.1, "relative error")
	delta := fs.Float64("delta", 0.25, "failure probability")
	seed := fs.Uint64("seed", 5489, "PRNG seed")
	timeout := fs.Duration("timeout", 10*time.Second, "per-scheme timeout")
	maxImages := fs.Int("max-images", 22, "exact baseline limit per component")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *queryText == "" {
		return fmt.Errorf("compare requires -in and -query")
	}
	db, err := loadDBWithSchema(*in, *benchmark, *schemaPath)
	if err != nil {
		return err
	}
	q, err := parseQueryFor(db, *queryText)
	if err != nil {
		return err
	}
	prepStart := time.Now()
	set, err := synopsis.Build(db, q)
	if err != nil {
		return err
	}
	fmt.Printf("synopses: %d tuples, %d images, balance %.3f (prep %s); recommended scheme: %v\n",
		set.OutputSize(), set.HomomorphicSize, set.Balance(),
		time.Since(prepStart).Round(time.Microsecond), cqa.SelectScheme(set))

	type column struct {
		name  string
		freqs []float64
		note  string
	}
	var cols []column

	exact, err := cqa.ExactAnswersFromSet(set, *maxImages)
	if err == nil {
		c := column{name: "exact"}
		for _, tf := range exact {
			c.freqs = append(c.freqs, tf.Freq)
		}
		cols = append(cols, c)
	} else if errors.Is(err, synopsis.ErrTooLarge) {
		cols = append(cols, column{name: "exact", note: "intractable"})
	} else {
		return err
	}

	for _, scheme := range cqa.Schemes {
		opts := cqa.Options{Eps: *eps, Delta: *delta, Seed: *seed}
		if *timeout > 0 {
			opts.Budget.Deadline = time.Now().Add(*timeout)
		}
		start := time.Now()
		res, stats, err := cqa.ApxAnswersFromSetContext(context.Background(), set, scheme, opts)
		c := column{name: scheme.String()}
		switch {
		case errors.Is(err, estimator.ErrBudget):
			c.note = "timeout"
		case err != nil:
			return err
		default:
			for _, tf := range res {
				c.freqs = append(c.freqs, tf.Freq)
			}
			c.note = fmt.Sprintf("%s, %d samples", time.Since(start).Round(time.Microsecond), stats.Samples)
		}
		cols = append(cols, c)
	}

	// Header.
	fmt.Printf("%-24s", "tuple")
	for _, c := range cols {
		fmt.Printf("%12s", c.name)
	}
	fmt.Println()
	for i := range set.Entries {
		parts := make([]string, len(set.Entries[i].Tuple))
		for k, v := range set.Entries[i].Tuple {
			parts[k] = db.Dict.Render(v)
		}
		label := "(" + strings.Join(parts, ",") + ")"
		if len(label) > 23 {
			label = label[:20] + "..."
		}
		fmt.Printf("%-24s", label)
		for _, c := range cols {
			if i < len(c.freqs) {
				fmt.Printf("%12.4f", c.freqs[i])
			} else {
				fmt.Printf("%12s", "-")
			}
		}
		fmt.Println()
	}
	for _, c := range cols {
		if c.note != "" {
			fmt.Printf("%-10s %s\n", c.name+":", c.note)
		}
	}
	return nil
}
