// Validation runs a slice of the paper's Appendix F validation scenarios:
// conjunctive renderings of TPC-H and TPC-DS query templates over
// increasingly noisy databases, comparing all four approximation schemes
// and printing per-template runtime tables with the achieved balance —
// the textual analogue of Figure 5.
package main

import (
	"fmt"
	"log"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/harness"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
	"cqabench/internal/tpcds"
	"cqabench/internal/tpch"
)

func main() {
	hcfg := harness.Config{
		Opts:    cqa.DefaultOptions(),
		Timeout: 3 * time.Second,
	}
	levels := []float64{0.2, 0.5, 0.8}

	fmt.Println("== TPC-H validation scenarios ==")
	hdb := tpch.MustGenerate(tpch.Config{ScaleFactor: 0.0002, Seed: 1})
	for _, vq := range scenario.TPCHValidationQueries() {
		if vq.TemplateID != 4 && vq.TemplateID != 12 {
			continue // a representative slice; cmd/cqabench validate runs all
		}
		runOne(hdb, vq, levels, hcfg)
	}

	fmt.Println("\n== TPC-DS validation scenarios ==")
	dsdb := tpcds.MustGenerate(tpcds.Config{ScaleFactor: 0.0002, Seed: 1})
	for _, vq := range scenario.TPCDSValidationQueries() {
		if vq.TemplateID != 62 && vq.TemplateID != 82 {
			continue
		}
		runOne(dsdb, vq, levels, hcfg)
	}
}

func runOne(base *relation.Database, vq scenario.ValidationQuery, levels []float64, hcfg harness.Config) {
	w, err := scenario.ValidationScenario(base, vq, levels, 2, 5, 1)
	if err != nil {
		log.Fatalf("%s: %v", vq.Name(), err)
	}
	fig, err := harness.Run(w, hcfg)
	if err != nil {
		log.Fatalf("%s: %v", vq.Name(), err)
	}
	mean, std := fig.BalanceStats()
	fmt.Printf("\n%s", fig.Table())
	fmt.Printf("balance avg %.2f%% / std %.2f%%, best performer: %v\n",
		mean*100, std*100, fig.Winner())
}
