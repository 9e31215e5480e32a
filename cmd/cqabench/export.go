package main

import (
	"flag"
	"fmt"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/harness"
	"cqabench/internal/scenario"
)

// cmdExport builds one scenario family and writes it to a directory as a
// portable artifact (schema + databases + manifest), like the paper's
// published test scenarios.
func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	family := fs.String("family", "noise", "noise, balance or joins")
	sf := fs.Float64("sf", 0.0002, "TPC-H scale factor")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	queries := fs.Int("queries", 1, "queries per join level")
	out := fs.String("out", "scenario-export", "output directory")
	balance := fs.Float64("balance", 0, "fixed balance (noise, joins families)")
	noisep := fs.Float64("noise", 0.4, "fixed noise (balance, joins families)")
	joins := fs.Int("joins", 1, "fixed join level (noise, balance families)")
	levelsFlag := fs.String("levels", "", "comma-separated varied levels (defaults per family)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	axis := scenario.Axis(*family)
	def, ok := familyLevels[axis]
	if !ok {
		return fmt.Errorf("unknown family %q (want noise, balance or joins)", *family)
	}
	levels, err := parseLevels("levels", defaultStr(*levelsFlag, def))
	if err != nil {
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
	w, err := buildWorkload(lab, axis, *balance, *noisep, *joins, levels)
	if err != nil {
		return err
	}
	if err := scenario.Export(w, *out); err != nil {
		return err
	}
	fmt.Printf("exported %s (%d pairs) to %s\n", w.Name, len(w.Pairs), *out)
	return nil
}

// cmdRunScenario imports an exported scenario directory and measures all
// schemes over it, printing the table of the axis its manifest records.
func cmdRunScenario(args []string) error {
	fs := flag.NewFlagSet("runscenario", flag.ContinueOnError)
	dir := fs.String("dir", "", "scenario directory (from export)")
	timeout := fs.Duration("timeout", 10*time.Second, "per (pair, scheme) timeout")
	eps := fs.Float64("eps", 0.1, "relative error")
	delta := fs.Float64("delta", 0.25, "failure probability")
	chart := fs.Bool("chart", false, "also render an ASCII chart")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("runscenario requires -dir")
	}
	w, err := scenario.Import(*dir)
	if err != nil {
		return err
	}
	fig, err := harness.Run(w, harness.Config{
		Opts:    cqa.Options{Eps: *eps, Delta: *delta, Seed: 5489},
		Timeout: *timeout,
	})
	if err != nil {
		return err
	}
	fmt.Print(fig.Table())
	if *chart {
		fmt.Print(fig.Chart(72, 16))
	}
	return nil
}

func defaultStr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
