package cqa

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cqabench/internal/estimator"
	"cqabench/internal/mt"
)

// The parallel golden file pins the parallel sampling path's draw
// schedule: the exact estimates (float bits) and sample counts of every
// scheme over the same shapes and seeds as the kernel golden grid, but
// drawing from seed-derived per-chunk substreams (SamplingWorkers ≥ 2).
// These values are invariant across pool sizes — TestParallelSampling*
// asserts that — so one worker count suffices to pin the schedule. Any
// drift here is a determinism regression in the substream derivation or
// the chunk-ordered reduction. Regenerate (only when intentionally
// changing parallel sampling semantics) with:
//
//	go test ./internal/cqa -run TestParallelGolden -update-parallel-golden
var updateParallelGolden = flag.Bool("update-parallel-golden", false,
	"rewrite testdata/parallel_golden.json from the current implementation")

const parallelGoldenPath = "testdata/parallel_golden.json"

// parallelGoldenGrid runs the kernel golden grid in parallel sampling
// mode. Cover is included deliberately: it always runs sequentially, so
// its parallel-mode values must equal its kernel-golden values — pinned
// here so a future change cannot silently route it through the pool.
func parallelGoldenGrid() []goldenCase {
	const workers = 3
	var out []goldenCase
	for _, p := range goldenPairs() {
		for _, scheme := range Schemes {
			for _, seed := range []uint64{1, mt.DefaultSeed} {
				for _, maxSamples := range []int64{0, 37, 20000} {
					opts := Options{Eps: 0.2, Delta: 0.3, Seed: seed,
						Budget:          estimator.Budget{MaxSamples: maxSamples},
						SamplingWorkers: workers}
					freq, samples, err := runPair(p.pair, scheme, opts)
					c := goldenCase{
						Pair:       p.name,
						Scheme:     scheme.String(),
						Seed:       seed,
						MaxSamples: maxSamples,
						FreqBits:   fmt.Sprintf("%016x", math.Float64bits(freq)),
						Samples:    samples,
					}
					switch {
					case err == nil:
					case errors.Is(err, estimator.ErrBudget):
						c.Err = "budget"
					default:
						panic(fmt.Sprintf("parallel golden %s/%s: %v", p.name, scheme, err))
					}
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// TestParallelGolden locks the parallel sampling path's estimates,
// sample counts, and budget outcomes to the recorded reference, the
// parallel-mode counterpart of TestKernelGolden. The sequential fixture
// (testdata/kernel_golden.json) is untouched by the parallel path:
// SamplingWorkers ∈ {0, 1} still draws the classic single stream.
func TestParallelGolden(t *testing.T) {
	got := parallelGoldenGrid()
	if *updateParallelGolden {
		if err := os.MkdirAll(filepath.Dir(parallelGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parallelGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d parallel golden cases to %s", len(got), parallelGoldenPath)
		return
	}
	raw, err := os.ReadFile(parallelGoldenPath)
	if err != nil {
		t.Fatalf("missing parallel golden file (run with -update-parallel-golden to create): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("parallel golden grid size changed: have %d cases, golden holds %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w != g {
			t.Errorf("case %s/%s seed=%d max=%d:\n  want %+v\n  got  %+v",
				w.Pair, w.Scheme, w.Seed, w.MaxSamples, w, g)
		}
	}
}
