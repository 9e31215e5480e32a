package cqa

import (
	"context"
	"errors"
	"math"
	"testing"

	"cqabench/internal/estimator"
	"cqabench/internal/mt"
	"cqabench/internal/sampler"
	"cqabench/internal/synopsis"
)

// plainFreq computes one pair's estimate as if the plain kernel were
// always chosen: the reference the shape-based selector must never
// deviate from. Both kernels consume the PRNG stream identically, so any
// divergence is a determinism bug in an indexed kernel.
func plainFreq(pair *synopsis.Admissible, scheme Scheme, opts Options, src *mt.Source) (float64, int64, error) {
	var (
		s      estimator.Sampler
		weight = 1.0
	)
	switch scheme {
	case Natural:
		s = sampler.NewNatural(pair)
	case KL:
		kl := sampler.NewKL(pair)
		s, weight = kl, kl.Weight()
	case KLM:
		klm := sampler.NewKLM(pair)
		s, weight = klm, klm.Weight()
	case Cover:
		r, err := estimator.SelfAdjustingCoverageContext(context.Background(), sampler.NewSymbolic(pair), opts.Eps, opts.Delta, src, opts.Budget)
		return clamp01(r.Estimate), r.Samples, err
	}
	r, err := estimator.MonteCarloContext(context.Background(), s, opts.Eps, opts.Delta, src, opts.Budget)
	return clamp01(r.Estimate * weight), r.Samples, err
}

func clamp01(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < 0 {
		return 0
	}
	return v
}

// TestKernelSelectionPreservesResults runs every scheme through the real
// auto-selecting path and through the forced-plain reference on the same
// seeds, including shapes where the selector picks the indexed kernel and
// budgets that exhaust mid-run: estimates (bitwise) and sample counts
// must coincide.
func TestKernelSelectionPreservesResults(t *testing.T) {
	for _, p := range goldenPairs() {
		for _, scheme := range Schemes {
			for _, seed := range []uint64{1, 42, mt.DefaultSeed} {
				for _, max := range []int64{0, 37, 20000} {
					opts := Options{Eps: 0.2, Delta: 0.3, Seed: seed, Budget: estimator.Budget{MaxSamples: max}}
					wantF, wantN, wantErr := plainFreq(p.pair, scheme, opts, mt.New(seed))
					if wantErr != nil {
						wantF = 0 // a failed run returns no estimate
					}
					gotF, gotN, gotErr := runPair(p.pair, scheme, opts)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s/%v seed=%d max=%d: errors differ: %v vs %v",
							p.name, scheme, seed, max, wantErr, gotErr)
					}
					if gotErr != nil && !errors.Is(gotErr, estimator.ErrBudget) {
						t.Fatalf("%s/%v seed=%d max=%d: unexpected error %v", p.name, scheme, seed, max, gotErr)
					}
					if math.Float64bits(wantF) != math.Float64bits(gotF) {
						t.Fatalf("%s/%v seed=%d max=%d: freq %v vs %v (bits %x vs %x)",
							p.name, scheme, seed, max, wantF, gotF,
							math.Float64bits(wantF), math.Float64bits(gotF))
					}
					if wantN != gotN {
						t.Fatalf("%s/%v seed=%d max=%d: samples %d vs %d",
							p.name, scheme, seed, max, wantN, gotN)
					}
				}
			}
		}
	}
}

// The large golden pair must actually exercise the indexed kernels, and
// the small ones the plain kernel — otherwise the test above proves
// nothing about the indexed path.
func TestGoldenPairsCoverBothKernels(t *testing.T) {
	var sawPlain, sawIndexed bool
	for _, p := range goldenPairs() {
		switch sampler.SelectKernel(p.pair) {
		case sampler.Plain:
			sawPlain = true
		case sampler.Indexed:
			sawIndexed = true
		}
	}
	if !sawPlain || !sawIndexed {
		t.Fatalf("golden pairs must cover both kernels: plain=%v indexed=%v", sawPlain, sawIndexed)
	}
}
