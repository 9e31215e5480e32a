// Command cqabench is the benchmark front-end: it generates TPC-H /
// TPC-DS-style data, injects query-aware noise, answers conjunctive
// queries approximately (Natural / KL / KLM / Cover), exactly, or with
// every scheme beside the exact answer, generates stress-test queries
// (SQG / DQG), and regenerates the paper's figures as text tables and
// CSV, one command per figure: figure makes Figures 1-4, validate
// Figure 5 and grid the appendix Figures 6-13.
//
// Usage:
//
//	cqabench gen      -benchmark tpch -sf 0.001 -seed 1 -out db.txt
//	cqabench noise    -benchmark tpch -in db.txt -query 'Q() :- ...' -p 0.5 -out noisy.txt
//	cqabench answer   -benchmark tpch -in noisy.txt -query 'Q(x) :- ...' -scheme KLM
//	cqabench answer   -benchmark tpch -in noisy.txt -query 'Q(x) :- ...' -scheme exact
//	cqabench answer   -benchmark tpch -in noisy.txt -query 'Q(x) :- ...' -scheme all -timeout 10s
//	cqabench querygen -benchmark tpch -in db.txt -joins 3 -constants 2
//	cqabench figure   -id 1 [-sf 0.0005] [-timeout 10s] [-csv out.csv]
//	cqabench validate -benchmark tpch [-template 4]
//	cqabench grid     [-out grid-results] [-families noise,balance,joins]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cqabench/internal/cq"
	"cqabench/internal/cqa"
	"cqabench/internal/harness"
	"cqabench/internal/noise"
	"cqabench/internal/qgen"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cqabench:", err)
		os.Exit(1)
	}
}

// commands is the subcommand table, in the order usage lists it: run
// dispatches on it and usage prints it, so each subcommand is named
// once.
var commands = []struct {
	name, help string
	run        func(args []string) error
}{
	{"gen", "generate a consistent TPC-H or TPC-DS database", cmdGen},
	{"noise", "inject query-aware primary-key noise into a database", cmdNoise},
	{"answer", "answer a CQ: one scheme (Natural/KL/KLM/Cover), exact, or all of them beside exact", cmdAnswer},
	{"querygen", "generate stress-test queries (SQG, optionally DQG balance targets)", cmdQuerygen},
	{"figure", "regenerate paper Figures 1-4 (1=noise 2=balance 3=prep 4=joins), with live telemetry", cmdFigure},
	{"validate", "run the validation scenarios (Figure 5, Appendix F)", cmdValidate},
	{"stats", "inconsistency statistics and dynamic query parameters", cmdStats},
	{"grid", "regenerate the full appendix scenario matrix (Figures 6-13)", cmdGrid},
	{"audit", "calibrate the (eps, delta) guarantee over repeated trials (JSON + violation gate)", cmdAudit},
	{"export", "write one scenario family to a directory (schema + dbs + manifest)", cmdExport},
	{"runscenario", "measure all schemes over an exported scenario directory", cmdRunScenario},
	{"dnf", "count satisfying assignments of a DIMACS DNF formula", cmdDNF},
	{"selftest", "verify the installation end to end in seconds", cmdSelftest},
	{"serve", "HTTP estimation service over named instances (POST /v1/estimate)", cmdServe},
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "help", "-h", "--help":
		usage()
		return nil
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.run(args[1:])
		}
	}
	usage()
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func usage() {
	var b strings.Builder
	b.WriteString("cqabench — benchmarking approximate consistent query answering\n\nsubcommands:\n")
	for _, c := range commands {
		fmt.Fprintf(&b, "  %-11s  %s\n", c.name, c.help)
	}
	fmt.Fprint(os.Stderr, b.String())
}

func saveDB(path string, db *relation.Database) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := relation.WriteDB(f, db); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	benchmark := fs.String("benchmark", "tpch", "tpch or tpcds")
	sf := fs.Float64("sf", 0.001, "scale factor (1 = full-size benchmark)")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := scenario.GenerateDB(*benchmark, *sf, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %d facts\n", db.NumFacts())
	if *out == "" {
		return relation.WriteDB(os.Stdout, db)
	}
	return saveDB(*out, db)
}

func cmdNoise(args []string) error {
	fs := flag.NewFlagSet("noise", flag.ContinueOnError)
	benchmark := fs.String("benchmark", "tpch", "tpch or tpcds")
	schemaPath := fs.String("schema", "", "schema DSL file (overrides -benchmark)")
	in := fs.String("in", "", "input database file")
	queryText := fs.String("query", "", "conjunctive query the noise should affect (unless -oblivious)")
	oblivious := fs.Bool("oblivious", false, "query-oblivious noise over the whole database")
	p := fs.Float64("p", 0.5, "noise percentage in (0, 1]")
	lo := fs.Int("min-block", 2, "minimum non-singleton block size")
	hi := fs.Int("max-block", 5, "maximum non-singleton block size")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("noise requires -in")
	}
	if !*oblivious && *queryText == "" {
		return fmt.Errorf("noise requires -query (or -oblivious)")
	}
	var ignored []string
	if *oblivious {
		ignored = []string{"query"}
	}
	if err := checkFlagUse("noise -oblivious", setFlags(fs), ignored...); err != nil {
		return err
	}
	db, err := scenario.LoadDB(*in, *benchmark, *schemaPath)
	if err != nil {
		return err
	}
	cfg := noise.Config{P: *p, MinBlock: *lo, MaxBlock: *hi, Seed: *seed}
	var noisy *relation.Database
	var stats noise.Stats
	if *oblivious {
		noisy, stats, err = noise.ApplyOblivious(db, cfg)
	} else {
		var q *cq.Query
		q, err = cq.Parse(*queryText, db.Dict)
		if err != nil {
			return err
		}
		noisy, stats, err = noise.Apply(db, q, cfg)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "relevant facts: %d, added facts: %d\n", stats.RelevantFacts, stats.AddedFacts)
	if *out == "" {
		return relation.WriteDB(os.Stdout, noisy)
	}
	return saveDB(*out, noisy)
}

func parseQueryFor(db *relation.Database, text string) (*cq.Query, error) {
	q, err := cq.Parse(text, db.Dict)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(db.Schema); err != nil {
		return nil, err
	}
	return q, nil
}

func cmdQuerygen(args []string) error {
	fs := flag.NewFlagSet("querygen", flag.ContinueOnError)
	benchmark := fs.String("benchmark", "tpch", "tpch or tpcds")
	schemaPath := fs.String("schema", "", "schema DSL file (overrides -benchmark)")
	in := fs.String("in", "", "input database file (for constants, non-emptiness and balance)")
	joins := fs.Int("joins", 2, "join conditions")
	constants := fs.Int("constants", 2, "constant occurrences")
	projection := fs.Float64("projection", 1, "fraction of attributes projected")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	balances := fs.String("balances", "", "comma-separated DQG target balances (optional)")
	iterations := fs.Int("dqg-iterations", 100, "DQG projection candidates")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkFlagUse("querygen", setFlags(fs)); err != nil {
		return err
	}
	var targets []float64
	if *balances != "" {
		var err error
		if targets, err = parseLevels("balances", *balances); err != nil {
			return err
		}
	}
	if *in == "" {
		return fmt.Errorf("querygen requires -in")
	}
	db, err := scenario.LoadDB(*in, *benchmark, *schemaPath)
	if err != nil {
		return err
	}
	pool := qgen.BuildConstPool(db, 24)
	q, err := qgen.SQGNonEmpty(db, pool, qgen.SQGConfig{
		Joins: *joins, Constants: *constants, Projection: *projection, Seed: *seed,
	}, 100)
	if err != nil {
		return err
	}
	fmt.Println(q.Render(db.Dict))
	if targets == nil {
		return nil
	}
	res, err := qgen.DQG(db, q, targets, qgen.DQGConfig{Iterations: *iterations, Seed: *seed})
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Printf("balance %.2f (target %.2f): %s\n", r.Balance, r.Target, r.Query.Render(db.Dict))
	}
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	benchmark := fs.String("benchmark", "tpch", "tpch or tpcds")
	template := fs.Int("template", 0, "single template id (0 = all)")
	sf := fs.Float64("sf", 0.0003, "scale factor")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	timeout := fs.Duration("timeout", 5*time.Second, "per (pair, scheme) timeout")
	levelsFlag := fs.String("levels", "0.2,0.4,0.6,0.8", "noise levels")
	if err := fs.Parse(args); err != nil {
		return err
	}
	levels, err := parseLevels("levels", *levelsFlag)
	if err != nil {
		return err
	}
	vqs, err := scenario.ValidationQueries(*benchmark)
	if err != nil {
		return err
	}
	base, err := scenario.GenerateDB(*benchmark, *sf, *seed)
	if err != nil {
		return err
	}
	hcfg := harness.Config{Opts: cqa.DefaultOptions(), Timeout: *timeout}
	for _, vq := range vqs {
		if *template != 0 && vq.TemplateID != *template {
			continue
		}
		w, err := scenario.ValidationScenario(base, vq, levels, 2, 5, *seed)
		if err != nil {
			fmt.Printf("%s: skipped (%v)\n", vq.Name(), err)
			continue
		}
		fig, err := harness.Run(w, hcfg)
		if err != nil {
			return err
		}
		mean, std := fig.BalanceStats()
		fmt.Printf("%s  (balance avg %.2f%% / std %.2f%%)\n", fig.Table(), mean*100, std*100)
	}
	return nil
}
