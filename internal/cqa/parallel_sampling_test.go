package cqa

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"cqabench/internal/estimator"
	"cqabench/internal/synopsis"
)

// goldenSet wraps the golden pairs into a multi-tuple synopsis set, so
// scheme-level determinism tests exercise the per-tuple substream-root
// derivation (tupleSeed) too.
func goldenSet() *synopsis.Set {
	set := &synopsis.Set{}
	for _, p := range goldenPairs() {
		set.Entries = append(set.Entries, synopsis.Entry{Pair: p.pair})
	}
	return set
}

func sameRun(t *testing.T, tag string, aRes, bRes []TupleFreq, aStats, bStats Stats, aErr, bErr error) {
	t.Helper()
	if (aErr == nil) != (bErr == nil) {
		t.Fatalf("%s: errors differ: %v vs %v", tag, aErr, bErr)
	}
	if aErr != nil && !errors.Is(bErr, estimator.ErrBudget) {
		t.Fatalf("%s: error %v does not wrap ErrBudget", tag, bErr)
	}
	if len(aRes) != len(bRes) {
		t.Fatalf("%s: result lengths differ: %d vs %d", tag, len(aRes), len(bRes))
	}
	for i := range aRes {
		if math.Float64bits(aRes[i].Freq) != math.Float64bits(bRes[i].Freq) {
			t.Fatalf("%s: tuple %d estimates differ: %v vs %v", tag, i, aRes[i].Freq, bRes[i].Freq)
		}
	}
	if aStats.Samples != bStats.Samples {
		t.Fatalf("%s: sample counts differ: %d vs %d", tag, aStats.Samples, bStats.Samples)
	}
	if aStats.Chunks != bStats.Chunks {
		t.Fatalf("%s: chunk counts differ: %d vs %d", tag, aStats.Chunks, bStats.Chunks)
	}
}

// TestParallelSamplingWorkerInvariance is the scheme-level determinism
// table: for all four schemes, with and without budget exhaustion, the
// parallel sampling mode returns bit-identical answers — estimates,
// sample counts, chunk counts, budget-failure outcomes — for every pool
// size (including -1 = auto). Run under -race in CI.
func TestParallelSamplingWorkerInvariance(t *testing.T) {
	set := goldenSet()
	for _, scheme := range Schemes {
		for _, maxSamples := range []int64{0, 37, 20000} {
			opts := Options{Eps: 0.25, Delta: 0.3, Seed: 7,
				Budget:          estimator.Budget{MaxSamples: maxSamples},
				SamplingWorkers: 2}
			refRes, refStats, refErr := ApxAnswersFromSetContext(context.Background(), set, scheme, opts)
			for _, w := range []int{4, 7, -1} {
				o := opts
				o.SamplingWorkers = w
				res, stats, err := ApxAnswersFromSetContext(context.Background(), set, scheme, o)
				sameRun(t, fmt.Sprintf("%v/workers=%d", scheme, w), refRes, res, refStats, stats, refErr, err)
			}
			if scheme != Cover && refErr == nil {
				// The tuple pool derives the same per-tuple roots, so in
				// parallel sampling mode the two tuple modes agree
				// tuple-for-tuple. (Error paths differ by design: the
				// sequential loop stops at the first exhausted tuple, the
				// pool finishes all tuples.)
				res, stats, err := ApxAnswersFromSetContext(context.Background(), set, scheme, tuplePool(opts, 3))
				sameRun(t, scheme.String()+"/tuple-pool", refRes, res, refStats, stats, refErr, err)
			}
		}
	}
}

// TestParallelSamplingSequentialUntouched pins the mode boundary:
// SamplingWorkers 0 and 1 are the same classic sequential single-stream
// path (whose exact values testdata/kernel_golden.json locks), and
// Cover ignores the pool entirely — its parallel-mode run equals its
// sequential run draw-for-draw.
func TestParallelSamplingSequentialUntouched(t *testing.T) {
	set := goldenSet()
	for _, scheme := range Schemes {
		opts := Options{Eps: 0.25, Delta: 0.3, Seed: 11}
		seqRes, seqStats, seqErr := ApxAnswersFromSetContext(context.Background(), set, scheme, opts)
		if seqErr != nil {
			t.Fatalf("%v: %v", scheme, seqErr)
		}
		if seqStats.SamplingWorkers != 1 || seqStats.Chunks != 0 {
			t.Fatalf("%v: sequential stats report workers=%d chunks=%d, want 1 and 0",
				scheme, seqStats.SamplingWorkers, seqStats.Chunks)
		}

		one := opts
		one.SamplingWorkers = 1
		oneRes, oneStats, oneErr := ApxAnswersFromSetContext(context.Background(), set, scheme, one)
		sameRun(t, scheme.String()+"/workers=1", seqRes, oneRes, seqStats, oneStats, seqErr, oneErr)

		par := opts
		par.SamplingWorkers = 4
		parRes, parStats, parErr := ApxAnswersFromSetContext(context.Background(), set, scheme, par)
		if parErr != nil {
			t.Fatalf("%v: %v", scheme, parErr)
		}
		if scheme == Cover {
			sameRun(t, "Cover/parallel-ignored", seqRes, parRes, seqStats, parStats, seqErr, parErr)
			if parStats.SamplingWorkers != 1 {
				t.Fatalf("Cover: parallel-mode stats report workers=%d, want 1", parStats.SamplingWorkers)
			}
		} else {
			if parStats.SamplingWorkers != 4 {
				t.Fatalf("%v: parallel stats report workers=%d, want 4", scheme, parStats.SamplingWorkers)
			}
			if parStats.Chunks <= 0 {
				t.Fatalf("%v: parallel stats report %d chunks, want > 0", scheme, parStats.Chunks)
			}
			// The substream schedule is a different stream than the
			// sequential one; identical results would mean the parallel
			// path silently fell back to sequential draws.
			differ := false
			for i := range seqRes {
				if math.Float64bits(seqRes[i].Freq) != math.Float64bits(parRes[i].Freq) {
					differ = true
				}
			}
			if !differ {
				t.Fatalf("%v: parallel-mode estimates identical to sequential for every tuple", scheme)
			}
		}
	}
}

// TestParallelSamplingAutoWorkers checks the shared clamp: -1 resolves
// to GOMAXPROCS for the intra-query pool, exactly like TupleWorkers -1
// does for the tuple pool.
func TestParallelSamplingAutoWorkers(t *testing.T) {
	o := Options{SamplingWorkers: -1}
	if w, par := o.samplingPool(); !par || w != runtime.GOMAXPROCS(0) {
		t.Fatalf("samplingPool(-1) = (%d, %v), want (GOMAXPROCS=%d, true)", w, par, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{0, 1} {
		o := Options{SamplingWorkers: n}
		if w, par := o.samplingPool(); par || w != 1 {
			t.Fatalf("samplingPool(%d) = (%d, %v), want (1, false)", n, w, par)
		}
	}
	if w, par := (Options{SamplingWorkers: 5}).samplingPool(); !par || w != 5 {
		t.Fatalf("samplingPool(5) = (%d, %v), want (5, true)", w, par)
	}
}
