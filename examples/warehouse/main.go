// Warehouse runs the paper's full pipeline on a TPC-H-style data
// warehouse: generate consistent data, inject query-aware noise, compute
// the synopsis preprocessing step, answer a non-Boolean CQ with all four
// approximation schemes, and cross-check against the exact relative
// frequencies computed by inclusion–exclusion.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"cqabench/internal/cq"
	"cqabench/internal/cqa"
	"cqabench/internal/noise"
	"cqabench/internal/relation"
	"cqabench/internal/synopsis"
	"cqabench/internal/tpch"
)

func main() {
	db := tpch.MustGenerate(tpch.Config{ScaleFactor: 0.0003, Seed: 1})
	fmt.Printf("Generated TPC-H database: %d facts, consistent=%v\n",
		db.NumFacts(), relation.IsConsistentDB(db))

	// A market-segment query joining customer and orders: which segments
	// have urgent orders?
	q := cq.MustParse(
		"Q(seg) :- customer(c, n, a, nk, ph, b, seg, cm), orders(o, c, st, tp, d, '1-URGENT', cl, sp, ocm)",
		db.Dict)
	fmt.Println("Query:", q.Render(db.Dict))

	// Inject 40% query-aware noise with blocks of size 2-5 (the paper's
	// block range).
	noisy, stats, err := noise.Apply(db, q, noise.DefaultConfig(0.4))
	if err != nil {
		log.Fatal(err)
	}
	bi := relation.BuildBlocks(noisy)
	fmt.Printf("Noise: %d query-relevant facts, %d injected, %d conflict blocks\n",
		stats.RelevantFacts, stats.AddedFacts, len(bi.NonSingletonBlocks()))

	// The preprocessing step: one synopsis per answer tuple.
	set, err := synopsis.Build(noisy, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Synopses: %d answer tuples, %d homomorphic images, balance %.3f\n",
		set.OutputSize(), set.HomomorphicSize, set.Balance())

	// Exact frequencies via inclusion-exclusion where tractable.
	exact := map[string]float64{}
	for _, e := range set.Entries {
		r, err := e.Pair.ExactRatio(22)
		if err != nil {
			continue // too many images; the schemes still estimate it
		}
		exact[renderTuple(noisy, e.Tuple)] = r
	}

	fmt.Println("\nApproximate consistent answers (eps=0.1, delta=0.25):")
	for _, scheme := range cqa.Schemes {
		res, st, err := cqa.ApxAnswersFromSetContext(context.Background(), set, scheme, cqa.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s time=%-12s samples=%d\n", scheme, st.Elapsed.Round(1000), st.Samples)
		for _, tf := range res {
			key := renderTuple(noisy, tf.Tuple)
			line := fmt.Sprintf("    %-14s freq=%.4f", key, tf.Freq)
			if ex, ok := exact[key]; ok {
				line += fmt.Sprintf("  (exact %.4f)", ex)
			}
			fmt.Println(line)
		}
	}
}

func renderTuple(db *relation.Database, t relation.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = db.Dict.Render(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}
