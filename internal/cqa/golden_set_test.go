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

// The set golden file pins the multi-tuple answer loop's output bits:
// every tuple's estimate, the run's sample and chunk counts, its tuple
// count, sampling pool size and good-ratio bits, and its error kind, for
// every scheme and tuple mode over four sets. The kernel and parallel
// goldens run one pair on a fresh stream; this one covers what happens
// between tuples — the shared sequential stream, per-tuple seeds, the
// tuple pool's slot order and the index-order reduction. Regenerate (only
// when intentionally changing the loop's semantics) with:
//
//	go test ./internal/cqa -run TestSetGolden -update-set-golden
var updateSetGolden = flag.Bool("update-set-golden", false,
	"rewrite testdata/set_golden.json from the current implementation")

const setGoldenPath = "testdata/set_golden.json"

// setGoldenCase is one (set, scheme, budget, mode) run of the set grid.
type setGoldenCase struct {
	Set        string `json:"set"`
	Scheme     string `json:"scheme"`
	MaxSamples int64  `json:"max_samples,omitempty"`
	Mode       string `json:"mode"`
	// FreqBits holds each returned tuple's estimate bits, in hex; empty
	// when the run failed and returned no answers.
	FreqBits        []string `json:"freq_bits"`
	Samples         int64    `json:"samples"`
	Chunks          int64    `json:"chunks"`
	NumTuples       int      `json:"num_tuples"`
	SamplingWorkers int      `json:"sampling_workers"`
	GoodRatioBits   string   `json:"good_ratio_bits"`
	Err             string   `json:"err,omitempty"` // "budget" when ErrBudget, else ""
}

// setGoldenMode is one way of running the tuple loop.
type setGoldenMode struct {
	name            string
	tupleWorkers    int // 0: sequential loop; n ≥ 1: a pool of n workers
	samplingWorkers int
}

var setGoldenModes = []setGoldenMode{
	{"sequential", 0, 0},
	{"sampling-3", 0, 3},
	{"tuple-pool-1", 1, 0},
	{"tuple-pool-3", 3, 0},
	{"tuple-pool-3-sampling-3", 3, 3},
}

// fourModes crosses both tuple modes with both sampling modes, with
// pools of 2: the grid of the series golden and the dead-context tests.
var fourModes = []setGoldenMode{
	{"sequential", 0, 0},
	{"sampling-2", 0, 2},
	{"tuple-pool-2", 2, 0},
	{"tuple-pool-2-sampling-2", 2, 2},
}

// manySmallSet builds 64 tuples of one to three small blocks each, so a
// tuple pool interleaves its workers over many short estimations. The
// construction draws from its own MT stream and is fully deterministic.
func manySmallSet() *synopsis.Set {
	src := mt.New(2021)
	set := &synopsis.Set{}
	for t := 0; t < 64; t++ {
		pair := &synopsis.Admissible{}
		nBlocks := 1 + src.Intn(3)
		for b := 0; b < nBlocks; b++ {
			pair.BlockSizes = append(pair.BlockSizes, int32(1+src.Intn(4)))
		}
		touched := make([]bool, nBlocks)
		for k := 1 + src.Intn(3); k > 0; k-- {
			var img synopsis.Image
			for b := 0; b < nBlocks; b++ {
				if len(img) == 0 && b == nBlocks-1 || src.Intn(2) == 0 {
					img = append(img, synopsis.Member{Block: int32(b), Fact: int32(src.Intn(int(pair.BlockSizes[b])))})
					touched[b] = true
				}
			}
			pair.Images = append(pair.Images, img)
		}
		for b, ok := range touched {
			if !ok {
				pair.Images = append(pair.Images, synopsis.Image{{Block: int32(b), Fact: 0}})
			}
		}
		pair.Canonicalize()
		if err := pair.Validate(); err != nil {
			panic(fmt.Sprintf("small tuple %d: %v", t, err))
		}
		set.Entries = append(set.Entries, synopsis.Entry{Pair: pair})
	}
	return set
}

// smallPair draws a pair over one to four blocks of one to five facts:
// one image that touches every block, or (multi) two to four images,
// drawn again until at least two survive Canonicalize.
func smallPair(src *mt.Source, multi bool) *synopsis.Admissible {
	for {
		pair := &synopsis.Admissible{}
		for b := 1 + src.Intn(4); b > 0; b-- {
			pair.BlockSizes = append(pair.BlockSizes, int32(1+src.Intn(5)))
		}
		images := 1
		if multi {
			images = 2 + src.Intn(3)
		}
		for k := 0; k < images; k++ {
			var img synopsis.Image
			for b, sz := range pair.BlockSizes {
				if !multi || src.Intn(2) == 0 {
					img = append(img, synopsis.Member{Block: int32(b), Fact: int32(src.Intn(int(sz)))})
				}
			}
			if len(img) > 0 {
				pair.Images = append(pair.Images, img)
			}
		}
		pair.Canonicalize()
		if pair.Validate() == nil && (pair.NumImages() > 1) == multi {
			return pair
		}
	}
}

// oneImageSet builds 48 tuples of one image each, the shape of every
// answer tuple of a query without inconsistent keys.
func oneImageSet() *synopsis.Set {
	src := mt.New(2033)
	set := &synopsis.Set{}
	for t := 0; t < 48; t++ {
		set.Entries = append(set.Entries, synopsis.Entry{Pair: smallPair(src, false)})
	}
	return set
}

// mixedSet puts runs of one-image tuples (o) before, between and after
// multi-image ones (M).
func mixedSet() *synopsis.Set {
	src := mt.New(2034)
	set := &synopsis.Set{}
	for _, c := range "oooooMoooMMooooMoooooooooooo" {
		set.Entries = append(set.Entries, synopsis.Entry{Pair: smallPair(src, c == 'M')})
	}
	return set
}

// setGoldenGrid runs the full set grid with the current implementation.
func setGoldenGrid() []setGoldenCase {
	sets := []struct {
		name string
		set  *synopsis.Set
	}{
		{"golden", goldenSet()},
		{"many-small", manySmallSet()},
		{"one-image", oneImageSet()},
		{"mixed", mixedSet()},
	}
	var out []setGoldenCase
	for _, s := range sets {
		for _, scheme := range Schemes {
			for _, maxSamples := range []int64{0, 37} {
				for _, m := range setGoldenModes {
					opts := Options{Eps: 0.25, Delta: 0.3, Seed: 7,
						Budget:          estimator.Budget{MaxSamples: maxSamples},
						SamplingWorkers: m.samplingWorkers,
						TupleWorkers:    m.tupleWorkers}
					res, stats, err := ApxAnswersFromSetContext(context.Background(), s.set, scheme, opts)
					c := setGoldenCase{
						Set:             s.name,
						Scheme:          scheme.String(),
						MaxSamples:      maxSamples,
						Mode:            m.name,
						FreqBits:        []string{},
						Samples:         stats.Samples,
						Chunks:          stats.Chunks,
						NumTuples:       stats.NumTuples,
						SamplingWorkers: stats.SamplingWorkers,
						GoodRatioBits:   fmt.Sprintf("%016x", math.Float64bits(stats.GoodRatio)),
					}
					for _, r := range res {
						c.FreqBits = append(c.FreqBits, fmt.Sprintf("%016x", math.Float64bits(r.Freq)))
					}
					switch {
					case err == nil:
					case errors.Is(err, estimator.ErrBudget):
						c.Err = "budget"
					default:
						panic(fmt.Sprintf("set golden %s/%s/%s: %v", s.name, scheme, m.name, err))
					}
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// TestSetGolden locks the multi-tuple loop's answers and Stats, in every
// tuple mode, to the recorded reference.
func TestSetGolden(t *testing.T) {
	got := setGoldenGrid()
	if *updateSetGolden {
		if err := os.MkdirAll(filepath.Dir(setGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(setGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d set golden cases to %s", len(got), setGoldenPath)
		return
	}
	raw, err := os.ReadFile(setGoldenPath)
	if err != nil {
		t.Fatalf("missing set golden file (run with -update-set-golden to create): %v", err)
	}
	var want []setGoldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("set golden grid size changed: have %d cases, golden holds %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("case %s/%s max=%d %s:\n  want %s\n  got  %s",
				w.Set, w.Scheme, w.MaxSamples, w.Mode, wj, gj)
		}
	}
}
