package cqa

import (
	"context"
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
	"cqabench/internal/synopsis"
)

// The kernel golden file pins the exact estimates (float bits) and sample
// counts of every scheme on a fixed set of synopsis shapes and seeds. The
// batched / index-accelerated kernels must consume the MT19937-64 stream
// in exactly the order the original one-sample-at-a-time path did, so
// these values are invariant under kernel changes: any drift is a
// determinism regression, not noise. Regenerate (only when intentionally
// changing sampling semantics) with:
//
//	go test ./internal/cqa -run TestKernelGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/kernel_golden.json from the current implementation")

const goldenPath = "testdata/kernel_golden.json"

// goldenCase is one (pair, scheme, seed, budget) cell of the golden grid.
type goldenCase struct {
	Pair       string `json:"pair"`
	Scheme     string `json:"scheme"`
	Seed       uint64 `json:"seed"`
	MaxSamples int64  `json:"max_samples,omitempty"`
	// FreqBits is the IEEE-754 bit pattern of the estimate, in hex: bitwise
	// comparison catches drift a formatted float would round away.
	FreqBits string `json:"freq_bits"`
	Samples  int64  `json:"samples"`
	Err      string `json:"err,omitempty"` // "budget" when ErrBudget, else ""
}

// goldenPairs builds the fixed synopsis shapes of the golden grid. The
// construction is fully deterministic (its own MT stream) and spans the
// regimes the kernel selector distinguishes: tiny overlapping pairs
// (plain kernels), degenerate 1-block / 1-image pairs, and a large-|H|
// low-coverage pair (indexed kernels).
func goldenPairs() []struct {
	name string
	pair *synopsis.Admissible
} {
	small := &synopsis.Admissible{
		BlockSizes: []int32{2, 3, 2},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 0}},
			{{Block: 0, Fact: 0}, {Block: 1, Fact: 1}},
			{{Block: 1, Fact: 2}, {Block: 2, Fact: 0}},
		},
	}

	oneBlock := &synopsis.Admissible{
		BlockSizes: []int32{4},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 0}},
			{{Block: 0, Fact: 2}},
		},
	}

	oneImage := &synopsis.Admissible{
		BlockSizes: []int32{3, 3, 3},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 1}, {Block: 1, Fact: 0}, {Block: 2, Fact: 2}},
		},
	}

	// large: many short images over wide blocks — low coverage, big |H|,
	// the regime where the first-member index beats the plain scan.
	large := &synopsis.Admissible{}
	const nBlocks, blockSize = 24, 16
	for b := 0; b < nBlocks; b++ {
		large.BlockSizes = append(large.BlockSizes, blockSize)
	}
	src := mt.New(12345)
	for i := 0; i < 600; i++ {
		b1 := int32(src.Intn(nBlocks))
		b2 := int32(src.Intn(nBlocks))
		img := synopsis.Image{{Block: b1, Fact: int32(src.Intn(blockSize))}}
		if b2 != b1 {
			img = append(img, synopsis.Member{Block: b2, Fact: int32(src.Intn(blockSize))})
		}
		large.Images = append(large.Images, img)
	}
	for b := 0; b < nBlocks; b++ {
		large.Images = append(large.Images, synopsis.Image{{Block: int32(b), Fact: 0}})
	}

	out := []struct {
		name string
		pair *synopsis.Admissible
	}{
		{"small", small},
		{"one-block", oneBlock},
		{"one-image", oneImage},
		{"large", large},
	}
	for _, p := range out {
		p.pair.Canonicalize()
		if err := p.pair.Validate(); err != nil {
			panic(fmt.Sprintf("golden pair %s: %v", p.name, err))
		}
	}
	return out
}

// runPair runs one pair as a one-entry set through the answer call, the
// way every single-pair fixture is produced: the set's only tuple draws
// from mt.New(opts.Seed) and roots its substreams at opts.Seed. A failed
// run reports estimate 0 and the draws it made.
func runPair(pair *synopsis.Admissible, scheme Scheme, opts Options) (float64, int64, error) {
	set := &synopsis.Set{Entries: []synopsis.Entry{{Pair: pair}}}
	res, stats, err := ApxAnswersFromSetContext(context.Background(), set, scheme, opts)
	if err != nil {
		return 0, stats.Samples, err
	}
	return res[0].Freq, stats.Samples, nil
}

// goldenGrid runs the full grid with the current implementation.
func goldenGrid() []goldenCase {
	var out []goldenCase
	for _, p := range goldenPairs() {
		for _, scheme := range Schemes {
			for _, seed := range []uint64{1, mt.DefaultSeed} {
				for _, maxSamples := range []int64{0, 37, 20000} {
					opts := Options{Eps: 0.2, Delta: 0.3, Seed: seed,
						Budget: estimator.Budget{MaxSamples: maxSamples}}
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
						panic(fmt.Sprintf("golden %s/%s: %v", p.name, scheme, err))
					}
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// TestKernelGolden locks the estimates, sample counts, and budget
// outcomes of all four schemes to the recorded pre-kernel sequential
// reference: for a fixed seed the results must be bit-identical whatever
// kernel (plain, indexed, batched) the scheme selector picks.
func TestKernelGolden(t *testing.T) {
	got := goldenGrid()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cases to %s", len(got), goldenPath)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden grid size changed: have %d cases, golden holds %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w != g {
			t.Errorf("case %s/%s seed=%d max=%d:\n  want %+v\n  got  %+v",
				w.Pair, w.Scheme, w.Seed, w.MaxSamples, w, g)
		}
	}
}
