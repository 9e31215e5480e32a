package main

import (
	"flag"
	"fmt"
	"os"

	"cqabench/internal/cqa"
	"cqabench/internal/dnf"
)

// cmdDNF counts (approximately or exactly) the satisfying assignments of
// a boolean DNF formula in DIMACS syntax — the library doubling as the
// DNF-counting suite the paper's implementation extends.
func cmdDNF(args []string) error {
	fs := flag.NewFlagSet("dnf", flag.ContinueOnError)
	in := fs.String("in", "", "DIMACS DNF file (p dnf <vars> <clauses>)")
	methodName := fs.String("method", "KLM", "Natural, KL, KLM or Cover")
	eps := fs.Float64("eps", 0.1, "relative error")
	delta := fs.Float64("delta", 0.25, "failure probability")
	seed := fs.Uint64("seed", 5489, "PRNG seed")
	exact := fs.Bool("exact", false, "exhaustive count instead (<= 24 variables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("dnf requires -in")
	}
	if *exact {
		if err := checkFlagUse("dnf -exact", setFlags(fs), "method", "eps", "delta", "seed"); err != nil {
			return err
		}
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	formula, err := dnf.ParseDIMACS(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "formula: %d variables, %d clauses\n", formula.NumVars, len(formula.Clauses))
	if *exact {
		n, err := formula.CountSatisfying()
		if err != nil {
			return err
		}
		fmt.Println(n.String())
		return nil
	}
	scheme, err := cqa.ParseScheme(*methodName)
	if err != nil {
		return err
	}
	count, err := formula.ApproxCountSatisfying(scheme, *eps, *delta, *seed)
	if err != nil {
		return err
	}
	fmt.Println(count.Text('f', 1))
	return nil
}
