package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/harness"
	"cqabench/internal/scenario"
)

// cmdGrid regenerates the full appendix matrix (Figures 6–13): every
// Noise[q, j], Balance[p, j] and Joins[p, q] scenario over the requested
// level grids, writing one text table and one CSV per scenario into a
// directory. With the default reduced grids this is minutes of work; the
// paper-scale grids are a flag away (and a weekend of CPU).
func cmdGrid(args []string) error {
	fs := flag.NewFlagSet("grid", flag.ContinueOnError)
	sf := fs.Float64("sf", 0.0002, "TPC-H scale factor")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	timeout := fs.Duration("timeout", 5*time.Second, "per (pair, scheme) timeout")
	queries := fs.Int("queries", 1, "queries per join level")
	outDir := fs.String("out", "grid-results", "output directory")
	noiseLevels := fs.String("noise-levels", "0.2,0.6,1.0", "noise percentages")
	balanceLevels := fs.String("balance-levels", "0,0.5,1.0", "balance targets")
	joinLevels := fs.String("join-levels", "1,2,3", "join counts")
	families := fs.String("families", "noise,balance,joins", "which scenario families to run")
	if err := fs.Parse(args); err != nil {
		return err
	}

	noises, err := parseLevels("noise-levels", *noiseLevels)
	if err != nil {
		return err
	}
	balances, err := parseLevels("balance-levels", *balanceLevels)
	if err != nil {
		return err
	}
	joinFloats, err := parseLevels("join-levels", *joinLevels)
	if err != nil {
		return err
	}
	joins := joinCounts(joinFloats)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
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
	fams := strings.Split(*families, ",")
	has := func(f string) bool {
		for _, x := range fams {
			if strings.TrimSpace(x) == f {
				return true
			}
		}
		return false
	}

	hcfg := harness.Config{Opts: cqa.DefaultOptions(), Timeout: *timeout}
	// measure runs one scenario and writes its table and CSV under a name
	// that records the scenario's fixed parameters.
	measure := func(name string, w *scenario.Workload) error {
		fig, err := harness.Run(w, hcfg)
		if err != nil {
			return err
		}
		base := filepath.Join(*outDir, name)
		if err := os.WriteFile(base+".txt", []byte(fig.Table()), 0o644); err != nil {
			return err
		}
		if err := writeFile(base+".csv", fig.WriteCSV); err != nil {
			return err
		}
		fmt.Println("wrote", name)
		return nil
	}
	if has("noise") {
		for _, q := range balances {
			for _, j := range joins {
				w, err := lab.NoiseScenario(q, j, noises)
				if err != nil {
					return err
				}
				if err := measure(fmt.Sprintf("noise_b%02.0f_j%d", q*100, j), w); err != nil {
					return err
				}
			}
		}
	}
	if has("balance") {
		for _, p := range noises {
			for _, j := range joins {
				w, err := lab.BalanceScenario(p, j, balances)
				if err != nil {
					return err
				}
				if err := measure(fmt.Sprintf("balance_p%03.0f_j%d", p*100, j), w); err != nil {
					return err
				}
			}
		}
	}
	if has("joins") {
		for _, p := range noises {
			for _, q := range balances {
				w, err := lab.JoinsScenario(p, q, joins)
				if err != nil {
					return err
				}
				if err := measure(fmt.Sprintf("joins_p%03.0f_b%02.0f", p*100, q*100), w); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// familyLevels holds the x-axis levels of each scenario family for
// when -levels is not set.
var familyLevels = map[scenario.Axis]string{
	scenario.NoiseAxis:   "0.2,0.4,0.6,0.8,1.0",
	scenario.BalanceAxis: "0,0.25,0.5,0.75,1.0",
	scenario.JoinsAxis:   "1,2,3",
}

// parseLevels parses the comma-separated numbers given to flag name. An
// element that is not one finite number, such as "abc", "0.5x" or an
// empty one, is an error that names the flag and the element.
func parseLevels(name, s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("-%s: %q is not a finite number", name, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// joinCounts truncates parsed join levels to join counts.
func joinCounts(levels []float64) []int {
	out := make([]int, len(levels))
	for i, v := range levels {
		out[i] = int(v)
	}
	return out
}
