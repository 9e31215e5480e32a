package estimator

import (
	"context"
	"fmt"
	"math"
	"testing"

	"cqabench/internal/mt"
	"cqabench/internal/sampler"
	"cqabench/internal/synopsis"
)

// The two estimators below are the ablation baselines: the stopping rule
// on its own and a sample count fixed up front. No scheme runs them; the
// ablation benchmarks and the tests of the loops they share with the 𝒜𝒜
// algorithm do.

// stoppingRule runs the Stopping Rule Algorithm of [8] on its own, the
// first phase of 𝒜𝒜: it draws until the running sum reaches
// Υ1 = 1 + (1+ε)Υ and returns Υ1/N, an (ε, δ)-approximation of a
// positive mean.
func stoppingRule(ctx context.Context, s Sampler, eps, delta float64, src *mt.Source, budget Budget) (Result, error) {
	if err := checkArgs(eps, delta); err != nil {
		return Result{}, err
	}
	bt := newTracker(ctx, budget)
	est, err := stoppingRuleLoop(&seqStream{br: newBatcher(s), src: src}, eps, delta, &bt, RecorderFrom(ctx))
	if err != nil {
		return Result{Samples: bt.samples}, err
	}
	return Result{Estimate: est, Samples: bt.samples}, nil
}

// fixedSamples draws N = ⌈Υ/meanLB⌉ samples, the generalized zero-one
// estimator theorem bound of [8] with the worst-case variance ρ ≤ μ, and
// returns their mean. It is correct whenever E[Sample] ≥ meanLB but
// typically draws far more samples than MonteCarloContext.
func fixedSamples(ctx context.Context, s Sampler, eps, delta, meanLB float64, src *mt.Source, budget Budget) (Result, error) {
	if err := checkArgs(eps, delta); err != nil {
		return Result{}, err
	}
	if !(meanLB > 0) {
		return Result{}, fmt.Errorf("estimator: require a positive mean lower bound, got %v: %w", meanLB, ErrInvalidOptions)
	}
	bt := newTracker(ctx, budget)
	n := int64(math.Ceil(upsilon(eps, delta) / meanLB))
	est, err := fixedLoop(&seqStream{br: newBatcher(s), src: src}, n, &bt, RecorderFrom(ctx))
	if err != nil {
		return Result{Samples: bt.samples}, err
	}
	return Result{Estimate: est, Samples: bt.samples}, nil
}

// ablationPair returns the pair of the sampler and estimator ablations
// below, built from mt.New(7): 40 random images over 30 blocks of 2–5
// facts.
func ablationPair() *synopsis.Admissible {
	pair := &synopsis.Admissible{}
	src := mt.New(7)
	const nBlocks = 30
	for i := 0; i < nBlocks; i++ {
		pair.BlockSizes = append(pair.BlockSizes, int32(src.Intn(4))+2)
	}
	for i := 0; i < 40; i++ {
		var img synopsis.Image
		for bk := 0; bk < nBlocks; bk++ {
			if src.Intn(6) == 0 {
				img = append(img, synopsis.Member{Block: int32(bk), Fact: int32(src.Intn(int(pair.BlockSizes[bk])))})
			}
		}
		if len(img) == 0 {
			img = synopsis.Image{{Block: int32(i % nBlocks), Fact: 0}}
		}
		pair.Images = append(pair.Images, img)
	}
	pair.Canonicalize()
	touched := make([]bool, nBlocks)
	for _, img := range pair.Images {
		for _, m := range img {
			touched[m.Block] = true
		}
	}
	for bk, ok := range touched {
		if !ok {
			pair.Images = append(pair.Images, synopsis.Image{{Block: int32(bk), Fact: 0}})
		}
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		panic(err)
	}
	return pair
}

// BenchmarkAblation_OptEstimateVsHoeffding compares the optimal estimator
// of [8] against the non-adaptive fixed-N baseline sized from the
// worst-case 1/|H| mean lower bound — the design choice Section 4.2
// attributes the KL(M) schemes' performance to.
func BenchmarkAblation_OptEstimateVsHoeffding(b *testing.B) {
	pair := ablationPair()
	b.Run("OptEstimate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sampler.NewKL(pair)
			if _, err := MonteCarloContext(context.Background(), s, 0.2, 0.3, mt.New(uint64(i)), Budget{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FixedN", func(b *testing.B) {
		lb := 1 / float64(pair.NumImages())
		for i := 0; i < b.N; i++ {
			s := sampler.NewKL(pair)
			if _, err := fixedSamples(context.Background(), s, 0.2, 0.3, lb, mt.New(uint64(i)), Budget{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_StoppingRuleVsAA compares the plain stopping-rule
// estimator (one (eps, delta) pass) against the full three-step optimal
// algorithm of [8]: the stopping rule alone needs ~1/(eps^2 mu) samples
// where the AA algorithm adapts to the sampler's variance.
func BenchmarkAblation_StoppingRuleVsAA(b *testing.B) {
	pair := ablationPair()
	b.Run("StoppingRule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sampler.NewKLM(pair)
			if _, err := stoppingRule(context.Background(), s, 0.2, 0.3, mt.New(uint64(i)), Budget{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sampler.NewKLM(pair)
			if _, err := MonteCarloContext(context.Background(), s, 0.2, 0.3, mt.New(uint64(i)), Budget{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_KLvsKLM_SamplerCost isolates the per-sample cost gap
// the paper discusses: KLM iterates over every image, KL stops at the
// first witness.
func BenchmarkAblation_KLvsKLM_SamplerCost(b *testing.B) {
	pair := ablationPair()
	b.Run("KL", func(b *testing.B) {
		s := sampler.NewKL(pair)
		src := mt.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Sample(src)
		}
	})
	b.Run("KLM", func(b *testing.B) {
		s := sampler.NewKLM(pair)
		src := mt.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Sample(src)
		}
	})
}

// BenchmarkAblation_AliasVsLinear compares the Walker alias table used for
// drawing images from the symbolic space against naive linear cumulative
// search.
func BenchmarkAblation_AliasVsLinear(b *testing.B) {
	pair := ablationPair()
	weights := make([]float64, pair.NumImages())
	var total float64
	for i := range weights {
		weights[i] = pair.ImageWeight(i)
		total += weights[i]
	}
	b.Run("Alias", func(b *testing.B) {
		a := mt.NewAlias(weights)
		src := mt.New(1)
		for i := 0; i < b.N; i++ {
			_ = a.Draw(src)
		}
	})
	b.Run("Linear", func(b *testing.B) {
		src := mt.New(1)
		for i := 0; i < b.N; i++ {
			x := src.Float64() * total
			acc := 0.0
			for j, w := range weights {
				acc += w
				if acc >= x {
					_ = j
					break
				}
			}
		}
	})
}
