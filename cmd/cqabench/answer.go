package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
	"cqabench/internal/synopsis"
)

// cmdAnswer answers one query over one database file from synopses it
// builds once. -scheme names one of the four schemes, exact for the
// exact relative frequencies, or all for the exact column beside every
// scheme's estimate, tuple by tuple: the quickest way to see which scheme
// the data at hand favours, and whether the estimates agree. A flag the
// chosen -scheme ignores is an error, and the options are checked before
// the file is read.
func cmdAnswer(args []string) error {
	fs := flag.NewFlagSet("answer", flag.ContinueOnError)
	benchmark := fs.String("benchmark", "tpch", "tpch or tpcds")
	schemaPath := fs.String("schema", "", "schema DSL file (overrides -benchmark)")
	in := fs.String("in", "", "input database file")
	queryText := fs.String("query", "", "conjunctive query")
	schemeName := fs.String("scheme", "KLM", "Natural, KL, KLM or Cover; exact for the exact frequencies; all for the exact column beside every scheme")
	eps := fs.Float64("eps", 0.1, "relative error")
	delta := fs.Float64("delta", 0.25, "failure probability")
	seed := fs.Uint64("seed", 5489, "PRNG seed")
	timeout := fs.Duration("timeout", 0, "deadline of each scheme's estimation and of the exact frequencies, each counted from its own start (0 = none)")
	workers := fs.Int("parallel", 0, "tuple-level workers: 0 = one sequential loop, n = a pool of n, -1 = GOMAXPROCS")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *queryText == "" {
		return fmt.Errorf("answer requires -in and -query")
	}
	var scheme cqa.Scheme
	var ignored []string
	switch *schemeName {
	case "exact":
		ignored = []string{"eps", "delta", "seed", "parallel"}
	case "all":
	default:
		var err error
		if scheme, err = cqa.ParseScheme(*schemeName); err != nil {
			return fmt.Errorf("unknown -scheme %q (want Natural, KL, KLM, Cover, exact or all)", *schemeName)
		}
	}
	if err := checkFlagUse("answer -scheme "+*schemeName, setFlags(fs), ignored...); err != nil {
		return err
	}
	opts := cqa.Options{Eps: *eps, Delta: *delta, Seed: *seed, TupleWorkers: *workers}
	if err := opts.Validate(); err != nil {
		return err
	}
	db, err := scenario.LoadDB(*in, *benchmark, *schemaPath)
	if err != nil {
		return err
	}
	q, err := parseQueryFor(db, *queryText)
	if err != nil {
		return err
	}
	start := time.Now()
	set, err := synopsis.Build(db, q)
	if err != nil {
		return err
	}
	prep := time.Since(start)
	switch *schemeName {
	case "exact":
		res, err := cqa.ExactAnswersFromSet(set, *timeout)
		if err != nil {
			return err
		}
		printAnswers(db, res)
		return nil
	case "all":
		return printAll(db, set, prep, opts, *timeout)
	}
	res, stats, err := estimate(set, scheme, opts, *timeout)
	if err != nil {
		return err
	}
	printAnswers(db, res)
	fmt.Fprintf(os.Stderr, "scheme=%s tuples=%d samples=%d prep=%s run=%s\n",
		scheme, stats.NumTuples, stats.Samples, prep, stats.Elapsed)
	return nil
}

// estimate runs one scheme over set under a context whose deadline is
// timeout after its start (0 = none).
func estimate(set *synopsis.Set, scheme cqa.Scheme, opts cqa.Options, timeout time.Duration) ([]cqa.TupleFreq, cqa.Stats, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return cqa.ApxAnswersFromSetContext(ctx, set, scheme, opts)
}

func printAnswers(db *relation.Database, res []cqa.TupleFreq) {
	for _, tf := range res {
		fmt.Printf("%s\t%.6f\n", renderTuple(db, tf.Tuple, ", "), tf.Freq)
	}
}

// renderTuple renders t's values in parentheses, separated by sep.
func renderTuple(db *relation.Database, t relation.Tuple, sep string) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = db.Dict.Render(v)
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// printAll prints the synopses' sizes and the recommended scheme, then
// one row per tuple with the exact frequency and each scheme's estimate,
// and under the table a note per column: the exact column's when it
// exceeds its node bound or timeout, each scheme's time and samples or
// timeout. timeout bounds the exact column and each scheme, each from its
// own start, as a context deadline, so every column's timeout is the one
// error context.DeadlineExceeded.
func printAll(db *relation.Database, set *synopsis.Set, prep time.Duration, opts cqa.Options, timeout time.Duration) error {
	fmt.Printf("synopses: %d tuples, %d images, balance %.3f (prep %s); recommended scheme: %v\n",
		set.OutputSize(), set.HomomorphicSize, set.Balance(),
		prep.Round(time.Microsecond), cqa.SelectScheme(set))

	type column struct {
		name string
		res  []cqa.TupleFreq
		note string
	}
	res, err := cqa.ExactAnswersFromSet(set, timeout)
	exact := column{name: "exact", res: res}
	switch {
	case errors.Is(err, synopsis.ErrTooLarge):
		exact.note = "intractable"
	case errors.Is(err, context.DeadlineExceeded):
		exact.note = "timeout"
	case err != nil:
		return err
	}
	cols := []column{exact}
	for _, scheme := range cqa.Schemes {
		start := time.Now()
		res, stats, err := estimate(set, scheme, opts, timeout)
		c := column{name: scheme.String()}
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			c.note = "timeout"
		case err != nil:
			return err
		default:
			c.res = res
			c.note = fmt.Sprintf("%s, %d samples", time.Since(start).Round(time.Microsecond), stats.Samples)
		}
		cols = append(cols, c)
	}

	fmt.Printf("%-24s", "tuple")
	for _, c := range cols {
		fmt.Printf("%12s", c.name)
	}
	fmt.Println()
	for i := range set.Entries {
		label := renderTuple(db, set.Entries[i].Tuple, ",")
		if len(label) > 23 {
			label = label[:20] + "..."
		}
		fmt.Printf("%-24s", label)
		for _, c := range cols {
			if i < len(c.res) {
				fmt.Printf("%12.4f", c.res[i].Freq)
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
