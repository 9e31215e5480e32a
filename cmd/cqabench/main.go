// Command cqabench is the benchmark front-end: it generates TPC-H /
// TPC-DS-style data, injects query-aware noise, answers conjunctive
// queries approximately (Natural / KL / KLM / Cover) or exactly, generates
// stress-test queries (SQG / DQG), and regenerates the paper's figures as
// text tables and CSV, one command per figure: figure makes Figures 1-4,
// validate Figure 5 and grid the appendix Figures 6-13.
//
// Usage:
//
//	cqabench gen      -benchmark tpch -sf 0.001 -seed 1 -out db.txt
//	cqabench noise    -benchmark tpch -in db.txt -query 'Q() :- ...' -p 0.5 -out noisy.txt
//	cqabench answer   -benchmark tpch -in noisy.txt -query 'Q(x) :- ...' -scheme KLM
//	cqabench exact    -benchmark tpch -in noisy.txt -query 'Q(x) :- ...'
//	cqabench querygen -benchmark tpch -in db.txt -joins 3 -constants 2
//	cqabench figure   -id 1 [-sf 0.0005] [-timeout 10s] [-csv out.csv]
//	cqabench validate -benchmark tpch [-template 4]
//	cqabench grid     [-out grid-results] [-families noise,balance,joins]
package main

import (
	"context"
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
	"cqabench/internal/synopsis"
	"cqabench/internal/tpcds"
	"cqabench/internal/tpch"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cqabench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:])
	case "noise":
		return cmdNoise(args[1:])
	case "answer":
		return cmdAnswer(args[1:])
	case "exact":
		return cmdExact(args[1:])
	case "querygen":
		return cmdQuerygen(args[1:])
	case "figure":
		return cmdFigure(args[1:])
	case "validate":
		return cmdValidate(args[1:])
	case "stats":
		return cmdStats(args[1:])
	case "grid":
		return cmdGrid(args[1:])
	case "audit":
		return cmdAudit(args[1:])
	case "export":
		return cmdExport(args[1:])
	case "runscenario":
		return cmdRunScenario(args[1:])
	case "dnf":
		return cmdDNF(args[1:])
	case "compare":
		return cmdCompare(args[1:])
	case "selftest":
		return cmdSelftest(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `cqabench — benchmarking approximate consistent query answering

subcommands:
  gen       generate a consistent TPC-H or TPC-DS database
  noise     inject query-aware primary-key noise into a database
  answer    approximate the consistent answer of a CQ (Natural/KL/KLM/Cover)
  exact     compute the exact consistent answer of a CQ
  querygen  generate stress-test queries (SQG, optionally DQG balance targets)
  figure    regenerate paper Figures 1-4 (1=noise 2=balance 3=prep 4=joins), with live telemetry
  validate  run the validation scenarios (Figure 5, Appendix F)
  stats     inconsistency statistics and dynamic query parameters
  grid      regenerate the full appendix scenario matrix (Figures 6-13)
  audit     calibrate the (eps, delta) guarantee over repeated trials (JSON + violation gate)
  export    write one scenario family to a directory (schema + dbs + manifest)
  runscenario  measure all schemes over an exported scenario directory
  dnf       count satisfying assignments of a DIMACS DNF formula
  compare   run every scheme (and exact) on one query, side by side
  selftest  verify the installation end to end in seconds
  serve     HTTP estimation service over named instances (POST /v1/estimate)
`)
}

func schemaFor(benchmark string) (*relation.Schema, error) {
	switch benchmark {
	case "tpch":
		return tpch.Schema(), nil
	case "tpcds":
		return tpcds.Schema(), nil
	default:
		return nil, fmt.Errorf("unknown benchmark %q (want tpch or tpcds)", benchmark)
	}
}

// resolveSchema picks the schema: an explicit -schema DSL file wins over
// the built-in benchmark schemas, letting every data command run on
// arbitrary user schemas.
func resolveSchema(benchmark, schemaPath string) (*relation.Schema, error) {
	if schemaPath != "" {
		f, err := os.Open(schemaPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return relation.ParseSchema(f)
	}
	return schemaFor(benchmark)
}

func loadDBWithSchema(path, benchmark, schemaPath string) (*relation.Database, error) {
	s, err := resolveSchema(benchmark, schemaPath)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return relation.ReadDB(f, s)
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
	var db *relation.Database
	var err error
	switch *benchmark {
	case "tpch":
		db, err = tpch.Generate(tpch.Config{ScaleFactor: *sf, Seed: *seed})
	case "tpcds":
		db, err = tpcds.Generate(tpcds.Config{ScaleFactor: *sf, Seed: *seed})
	default:
		return fmt.Errorf("unknown benchmark %q", *benchmark)
	}
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
	db, err := loadDBWithSchema(*in, *benchmark, *schemaPath)
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

func cmdAnswer(args []string) error {
	fs := flag.NewFlagSet("answer", flag.ContinueOnError)
	benchmark := fs.String("benchmark", "tpch", "tpch or tpcds")
	schemaPath := fs.String("schema", "", "schema DSL file (overrides -benchmark)")
	in := fs.String("in", "", "input database file")
	queryText := fs.String("query", "", "conjunctive query")
	schemeName := fs.String("scheme", "KLM", "Natural, KL, KLM or Cover")
	eps := fs.Float64("eps", 0.1, "relative error")
	delta := fs.Float64("delta", 0.25, "failure probability")
	seed := fs.Uint64("seed", 5489, "PRNG seed")
	timeout := fs.Duration("timeout", 0, "one deadline for the whole run, counted from the start and shared by every tuple's estimation (0 = none)")
	workers := fs.Int("parallel", 0, "tuple-level workers: 0 = one sequential loop, n = a pool of n, -1 = GOMAXPROCS")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *queryText == "" {
		return fmt.Errorf("answer requires -in and -query")
	}
	scheme, err := cqa.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	db, err := loadDBWithSchema(*in, *benchmark, *schemaPath)
	if err != nil {
		return err
	}
	q, err := parseQueryFor(db, *queryText)
	if err != nil {
		return err
	}
	opts := cqa.Options{Eps: *eps, Delta: *delta, Seed: *seed, TupleWorkers: *workers}
	if *timeout > 0 {
		opts.Budget.Deadline = time.Now().Add(*timeout)
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	ctx := context.Background()
	start := time.Now()
	set, err := synopsis.BuildContext(ctx, db, q)
	if err != nil {
		return err
	}
	prep := time.Since(start)
	res, stats, err := cqa.ApxAnswersFromSetContext(ctx, set, scheme, opts)
	if err != nil {
		return err
	}
	printAnswers(db, res)
	fmt.Fprintf(os.Stderr, "scheme=%s tuples=%d samples=%d prep=%s run=%s\n",
		scheme, stats.NumTuples, stats.Samples, prep, stats.Elapsed)
	return nil
}

func cmdExact(args []string) error {
	fs := flag.NewFlagSet("exact", flag.ContinueOnError)
	benchmark := fs.String("benchmark", "tpch", "tpch or tpcds")
	schemaPath := fs.String("schema", "", "schema DSL file (overrides -benchmark)")
	in := fs.String("in", "", "input database file")
	queryText := fs.String("query", "", "conjunctive query")
	maxImages := fs.Int("max-images", 22, "inclusion-exclusion limit on |H|")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *queryText == "" {
		return fmt.Errorf("exact requires -in and -query")
	}
	db, err := loadDBWithSchema(*in, *benchmark, *schemaPath)
	if err != nil {
		return err
	}
	q, err := parseQueryFor(db, *queryText)
	if err != nil {
		return err
	}
	res, err := cqa.ExactAnswers(db, q, *maxImages)
	if err != nil {
		return err
	}
	printAnswers(db, res)
	return nil
}

func printAnswers(db *relation.Database, res []cqa.TupleFreq) {
	for _, tf := range res {
		parts := make([]string, len(tf.Tuple))
		for i, v := range tf.Tuple {
			parts[i] = db.Dict.Render(v)
		}
		fmt.Printf("(%s)\t%.6f\n", strings.Join(parts, ", "), tf.Freq)
	}
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
	db, err := loadDBWithSchema(*in, *benchmark, *schemaPath)
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
	var base *relation.Database
	var vqs []scenario.ValidationQuery
	switch *benchmark {
	case "tpch":
		base, err = tpch.Generate(tpch.Config{ScaleFactor: *sf, Seed: *seed})
		vqs = scenario.TPCHValidationQueries()
	case "tpcds":
		base, err = tpcds.Generate(tpcds.Config{ScaleFactor: *sf, Seed: *seed})
		vqs = scenario.TPCDSValidationQueries()
	default:
		return fmt.Errorf("unknown benchmark %q", *benchmark)
	}
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
