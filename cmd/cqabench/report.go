package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/harness"
	"cqabench/internal/scenario"
)

// cmdReport runs the representative sub-grid of every scenario family and
// writes a single markdown report with tables, ASCII charts, per-scenario
// winners, and the preprocessing summary.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	sf := fs.Float64("sf", 0.0002, "TPC-H scale factor")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	timeout := fs.Duration("timeout", 8*time.Second, "per (pair, scheme) timeout")
	queries := fs.Int("queries", 1, "queries per join level")
	out := fs.String("out", "", "output markdown file (default stdout)")
	charts := fs.Bool("charts", true, "embed ASCII charts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	labCfg := scenario.DefaultConfig()
	labCfg.ScaleFactor = *sf
	labCfg.Seed = *seed
	labCfg.QueriesPerJoin = *queries
	lab, err := scenario.NewLab(labCfg)
	if err != nil {
		return err
	}
	rcfg := harness.DefaultReportConfig()
	rcfg.Harness = harness.Config{Opts: cqa.DefaultOptions(), Timeout: *timeout}
	rcfg.Charts = *charts

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := harness.WriteReport(w, lab, rcfg); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintln(os.Stderr, "wrote", *out)
	}
	return nil
}
