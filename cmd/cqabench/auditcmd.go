package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cqabench/internal/audit"
	"cqabench/internal/cqa"
	"cqabench/internal/obs/manifest"
	"cqabench/internal/scenario"
)

// cmdAudit calibrates the (eps, delta) guarantee: it replays a balance
// scenario through the schemes with repeated independent seeds, scores
// every estimate against the exact relative frequency, and writes a
// manifest-stamped calibration JSON (error distributions, observed
// violation rate vs the promised delta, samples-to-convergence
// histograms). Its table gives each scheme's violation rate and mean and
// max relative error.
func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	sf := fs.Float64("sf", 0.0002, "TPC-H scale factor")
	seed := fs.Uint64("seed", 5489, "base PRNG seed (each trial derives its own stream)")
	eps := fs.Float64("eps", 0.1, "relative error under audit")
	delta := fs.Float64("delta", 0.25, "promised failure probability under audit")
	trials := fs.Int("trials", 3, "independent estimations per (scheme, tuple)")
	joins := fs.Int("joins", 1, "join level")
	noisep := fs.Float64("noise", 0.4, "noise level")
	balanceLevels := fs.String("balance-levels", "0.5,1.0", "balance targets")
	timeout := fs.Duration("timeout", 10*time.Second, "per-estimate timeout (0 = none)")
	schemesFlag := fs.String("schemes", "", "comma-separated schemes to audit (default all)")
	out := fs.String("out", filepath.Join("results", "audit.json"), "write the calibration JSON here (empty = skip)")
	failOnViolation := fs.Bool("fail-on-violation", false, "exit non-zero when any scheme's observed violation rate exceeds delta")
	if err := fs.Parse(args); err != nil {
		return err
	}
	levels, err := parseLevels("balance-levels", *balanceLevels)
	if err != nil {
		return err
	}

	var schemes []cqa.Scheme
	if *schemesFlag != "" {
		for _, name := range strings.Split(*schemesFlag, ",") {
			s, err := cqa.ParseScheme(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			schemes = append(schemes, s)
		}
	}

	labCfg := scenario.DefaultConfig()
	labCfg.ScaleFactor = *sf
	labCfg.Seed = 1
	labCfg.QueriesPerJoin = 1
	lab, err := scenario.NewLab(labCfg)
	if err != nil {
		return err
	}
	w, err := lab.BalanceScenario(*noisep, *joins, levels)
	if err != nil {
		return err
	}

	rep, err := audit.Run(w, audit.Config{
		Eps:     *eps,
		Delta:   *delta,
		Trials:  *trials,
		Seed:    *seed,
		Schemes: schemes,
		Timeout: *timeout,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.Table())

	if *out != "" {
		m := manifest.Collect("cqabench audit", manifest.FlagConfig(fs))
		m.SetConfig("scenario", w.Name)
		if dir := filepath.Dir(*out); dir != "." && dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		if err := writeFile(*out, func(wr io.Writer) error { return rep.WriteJSON(wr, &m) }); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote calibration:", *out)
	}
	if *failOnViolation {
		if v := rep.Violated(); len(v) > 0 {
			return fmt.Errorf("audit: observed violation rate exceeds delta=%.2f for: %s", *delta, strings.Join(v, ", "))
		}
	}
	return nil
}
