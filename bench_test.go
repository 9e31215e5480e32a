// Benchmarks regenerating the paper's figures (see DESIGN.md §3 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured shapes):
//
//	BenchmarkFig1_Noise       Figure 1 (+ App. Figs 6–7):   runtime vs noise
//	BenchmarkFig2_Balance     Figure 2 (+ App. Figs 8–9):   runtime vs balance
//	BenchmarkFig3_Preprocess  Figure 3: synopsis construction time
//	BenchmarkFig4_Joins       Figure 4 (+ App. Figs 10–13): runtime vs joins
//	BenchmarkFig5_Validation  Figure 5 (+ App. Figs 14–15): TPC-H/DS templates
//
// plus ablation benchmarks for the design choices DESIGN.md calls out.
// Each figure benchmark fixes the paper's control parameters in its
// sub-benchmark name (balance b, joins j, noise p) and reports per-scheme
// time; comparing sub-benchmark times reproduces the figures' orderings.
package cqabench_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"cqabench/internal/cqa"
	"cqabench/internal/estimator"
	"cqabench/internal/mt"
	"cqabench/internal/obs"
	"cqabench/internal/repair"
	"cqabench/internal/sampler"
	"cqabench/internal/scenario"
	"cqabench/internal/synopsis"
)

// benchOpts keeps per-estimate work bounded so a benchmark iteration
// cannot run away on a hostile synopsis (the harness's timeout analogue).
func benchOpts() cqa.Options {
	return cqa.Options{
		Eps:   0.2,
		Delta: 0.3,
		Seed:  mt.DefaultSeed,
		Budget: estimator.Budget{
			MaxSamples: 2_000_000,
		},
	}
}

var (
	labOnce sync.Once
	lab     *scenario.Lab
	labErr  error
)

func benchLab(b *testing.B) *scenario.Lab {
	b.Helper()
	labOnce.Do(func() {
		cfg := scenario.DefaultConfig()
		cfg.ScaleFactor = 0.0002
		cfg.QueriesPerJoin = 1
		cfg.DQGIterations = 30
		lab, labErr = scenario.NewLab(cfg)
	})
	if labErr != nil {
		b.Fatal(labErr)
	}
	return lab
}

// synopsesFor builds (once per call) the synopsis sets of a workload.
func synopsesFor(b *testing.B, w *scenario.Workload) []*synopsis.Set {
	b.Helper()
	sets := make([]*synopsis.Set, len(w.Pairs))
	for i, p := range w.Pairs {
		set, err := synopsis.Build(p.DB, p.Query)
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = set
	}
	return sets
}

// runScheme executes one scheme over prebuilt synopsis sets; budget
// exhaustion counts as a completed (timed-out) run, as in the harness.
func runScheme(b *testing.B, sets []*synopsis.Set, s cqa.Scheme) {
	b.Helper()
	opts := benchOpts()
	for _, set := range sets {
		if _, _, err := cqa.ApxAnswersFromSetContext(context.Background(), set, s, opts); err != nil && !errors.Is(err, estimator.ErrBudget) {
			b.Fatal(err)
		}
	}
}

func benchmarkFamily(b *testing.B, w *scenario.Workload) {
	sets := synopsesFor(b, w)
	for _, s := range cqa.Schemes {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			samples := obs.Default().Counter("sampler_samples_total", obs.L("scheme", s.String()))
			before := samples.Value()
			for i := 0; i < b.N; i++ {
				runScheme(b, sets, s)
			}
			registerBenchResult(b, float64(samples.Value()-before)/float64(b.N))
		})
	}
}

// registerBenchResult publishes a sub-benchmark's key results — draws per
// iteration (read back from the sampler_samples_total obs counter) and
// ns/op — both to the testing framework and as obs gauges, so a metrics
// snapshot taken after a bench run carries the perf trajectory.
func registerBenchResult(b *testing.B, samplesPerOp float64) {
	b.Helper()
	b.ReportMetric(samplesPerOp, "samples/op")
	lbl := obs.L("bench", b.Name())
	obs.Set("bench_samples_per_op", samplesPerOp, lbl)
	if b.N > 0 {
		obs.Set("bench_ns_per_op", float64(b.Elapsed().Nanoseconds())/float64(b.N), lbl)
	}
}

// BenchmarkFig1_Noise reproduces the noise scenarios: Boolean (balance 0)
// and non-Boolean (balance 0.5) queries at 1 and 3 joins, noise swept over
// {0.2, 0.6, 1.0}. Expected shape (paper take-home 1 & 2): Natural fastest
// at b=0, slowest at b=0.5 where KLM leads.
func BenchmarkFig1_Noise(b *testing.B) {
	l := benchLab(b)
	for _, bal := range []float64{0, 0.5} {
		for _, joins := range []int{1, 3} {
			w, err := l.NoiseScenario(bal, joins, []float64{0.2, 0.6, 1.0})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("b=%.1f/j=%d", bal, joins), func(b *testing.B) {
				benchmarkFamily(b, w)
			})
		}
	}
}

// BenchmarkFig2_Balance reproduces the balance scenarios: noise fixed at
// 0.4, balance swept over {0, 0.5, 1.0}, at 1 and 3 joins.
func BenchmarkFig2_Balance(b *testing.B) {
	l := benchLab(b)
	for _, joins := range []int{1, 3} {
		w, err := l.BalanceScenario(0.4, joins, []float64{0, 0.5, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("p=0.4/j=%d", joins), func(b *testing.B) {
			benchmarkFamily(b, w)
		})
	}
}

// BenchmarkFig3_Preprocess measures the preprocessing step (synopsis
// construction) whose distribution Figure 3 reports, per join level and
// noise level.
func BenchmarkFig3_Preprocess(b *testing.B) {
	l := benchLab(b)
	for _, joins := range []int{1, 3, 5} {
		for _, p := range []float64{0.2, 0.6, 1.0} {
			db, err := l.NoisyDB(joins, 0, p)
			if err != nil {
				b.Fatal(err)
			}
			q, err := l.BaseQuery(joins, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("j=%d/p=%.1f", joins, p), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := synopsis.Build(db, q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig4_Joins reproduces the join scenarios: noise 0.4, balance
// {0, 0.5}, joins swept 1–3. The paper reports per-scheme shares of the
// total time; here the sub-benchmark times give the same ordering.
func BenchmarkFig4_Joins(b *testing.B) {
	l := benchLab(b)
	for _, bal := range []float64{0, 0.5} {
		w, err := l.JoinsScenario(0.4, bal, []int{1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("p=0.4/b=%.1f", bal), func(b *testing.B) {
			benchmarkFamily(b, w)
		})
	}
}

// BenchmarkFig5_Validation reproduces two TPC-H validation scenarios:
// Q12 (low balance: Natural expected to dominate) and Q10 (non-zero
// balance: KLM expected to lead among the symbolic schemes).
func BenchmarkFig5_Validation(b *testing.B) {
	l := benchLab(b)
	for _, id := range []int{12, 10} {
		var vq scenario.ValidationQuery
		for _, cand := range scenario.TPCHValidationQueries() {
			if cand.TemplateID == id {
				vq = cand
			}
		}
		w, err := scenario.ValidationScenario(l.Base(), vq, []float64{0.2, 0.6}, 2, 5, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(vq.Name(), func(b *testing.B) {
			benchmarkFamily(b, w)
		})
	}
}

// benchPair returns a moderately sized admissible pair for the ablations.
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
			if _, err := estimator.MonteCarloContext(context.Background(), s, 0.2, 0.3, mt.New(uint64(i)), estimator.Budget{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FixedN", func(b *testing.B) {
		lb := 1 / float64(pair.NumImages())
		for i := 0; i < b.N; i++ {
			s := sampler.NewKL(pair)
			if _, err := estimator.FixedSamplesContext(context.Background(), s, 0.2, 0.3, lb, mt.New(uint64(i)), estimator.Budget{}); err != nil {
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

// BenchmarkAblation_SynopsisVsWholeDB quantifies what the synopsis of
// Section 4.1 buys: the natural scheme over the encoded admissible pair
// versus sampling whole-database repairs and re-evaluating the query per
// sample (the synopsis-free formulation of the natural approach).
func BenchmarkAblation_SynopsisVsWholeDB(b *testing.B) {
	l := benchLab(b)
	db, err := l.NoisyDB(1, 0, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	q, err := l.BaseQuery(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	boolean := q.Boolean()
	opts := benchOpts()
	b.Run("Synopsis", func(b *testing.B) {
		set, err := synopsis.Build(db, boolean)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := cqa.ApxAnswersFromSetContext(context.Background(), set, cqa.Natural, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WholeDB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := repair.NaiveNaturalFreq(db, boolean, nil, opts.Eps, opts.Delta,
				mt.New(uint64(i)), opts.Budget)
			if err != nil && !errors.Is(err, estimator.ErrBudget) {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_SynopsisSharing quantifies Section 5's optimization:
// computing all synopses once versus re-running the preprocessing step for
// every scheme invocation (Algorithm 1 verbatim).
func BenchmarkAblation_SynopsisSharing(b *testing.B) {
	l := benchLab(b)
	db, err := l.NoisyDB(1, 0, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	q, err := l.BaseQuery(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	b.Run("Shared", func(b *testing.B) {
		set, err := synopsis.Build(db, q)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := cqa.ApxAnswersFromSetContext(context.Background(), set, cqa.KLM, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Rebuilt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			set, err := synopsis.Build(db, q)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := cqa.ApxAnswersFromSetContext(context.Background(), set, cqa.KLM, opts); err != nil {
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
			if _, err := estimator.StoppingRuleContext(context.Background(), s, 0.2, 0.3, mt.New(uint64(i)), estimator.Budget{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sampler.NewKLM(pair)
			if _, err := estimator.MonteCarloContext(context.Background(), s, 0.2, 0.3, mt.New(uint64(i)), estimator.Budget{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_ExactAlgorithms compares the three exact baselines on
// a structured pair within all their reaches.
func BenchmarkAblation_ExactAlgorithms(b *testing.B) {
	pair := ablationExactPair()
	b.Run("InclusionExclusion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pair.ExactRatio(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Auto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pair.ExactRatioAuto(0, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pair.ExactRatioCompiled(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// kernelPair builds the large-|H| low-coverage regime where the
// first-member index pays: many images over large blocks, so the plain
// kernels scan (nearly) all of |H| per draw.
func kernelPair() *synopsis.Admissible {
	pair := &synopsis.Admissible{}
	const nBlocks = 30
	const blockSize = 24
	for bk := 0; bk < nBlocks; bk++ {
		pair.BlockSizes = append(pair.BlockSizes, blockSize)
	}
	src := mt.New(3)
	for i := 0; i < 3000; i++ {
		b1 := int32(src.Intn(nBlocks))
		b2 := int32(src.Intn(nBlocks))
		img := synopsis.Image{{Block: b1, Fact: int32(src.Intn(blockSize))}}
		if b2 != b1 {
			img = append(img, synopsis.Member{Block: b2, Fact: int32(src.Intn(blockSize))})
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

// wideKernelPair builds the regime the plain kernels are selected for,
// with the shape of a 45-block Boolean synopsis: 444 four-member images
// over 45 blocks (26 of size 1, 8 of size 2, 5 of size 3, 2 of size 4,
// 4 of size 5), every image starting with the same fact of a size-2
// block, so the first-member index has a single candidate list holding
// every image.
func wideKernelPair() *synopsis.Admissible {
	pair := &synopsis.Admissible{BlockSizes: []int32{
		2, 1, 5, 2, 1, 1, 1, 2, 1, 2, 2, 1, 1, 1, 1, 3, 2, 1, 1, 4, 3, 3, 1,
		1, 5, 3, 1, 1, 4, 1, 5, 1, 2, 1, 1, 3, 1, 5, 1, 1, 1, 1, 1, 1, 2,
	}}
	add := func(ms ...synopsis.Member) { pair.Images = append(pair.Images, ms) }
	for bk := int32(6); bk < int32(len(pair.BlockSizes)); bk++ {
		for f := int32(0); f < pair.BlockSizes[bk]; f++ {
			for x := int32(0); x < 5; x++ {
				add(synopsis.Member{Block: 0}, synopsis.Member{Block: 2, Fact: x}, synopsis.Member{Block: 3}, synopsis.Member{Block: bk, Fact: f})
			}
			add(synopsis.Member{Block: 0}, synopsis.Member{Block: 4}, synopsis.Member{Block: 5}, synopsis.Member{Block: bk, Fact: f})
		}
	}
	for x := int32(0); x < 5; x++ {
		add(synopsis.Member{Block: 0}, synopsis.Member{Block: 1}, synopsis.Member{Block: 2, Fact: x}, synopsis.Member{Block: 3})
	}
	add(synopsis.Member{Block: 0}, synopsis.Member{Block: 1}, synopsis.Member{Block: 4}, synopsis.Member{Block: 5})
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		panic(err)
	}
	return pair
}

// oneKernelPair is a one-image pair over blocks of sizes 1 to 5, the
// block sizes of perfbench's many-tuples workload, whose answer tuples
// all have one image.
func oneKernelPair() *synopsis.Admissible {
	pair := &synopsis.Admissible{
		BlockSizes: []int32{1, 2, 3, 4, 5},
		Images:     []synopsis.Image{{{Block: 0}, {Block: 1, Fact: 1}, {Block: 2, Fact: 2}, {Block: 3}, {Block: 4, Fact: 3}}},
	}
	if err := pair.Validate(); err != nil {
		panic(err)
	}
	return pair
}

// BenchmarkKernels compares, per scheme, the plain kernel (bit-sliced
// coverage test) against the first-member-indexed one, one draw at a
// time and in estimator-sized batches, on three shapes: the large-|H|
// pair where the kernel selector picks the index ("huge"), the
// Boolean-synopsis shape where it keeps the plain kernel ("wide"), and
// the one-image pair of most non-Boolean answer tuples ("one").
// samples/sec is the headline throughput number EXPERIMENTS.md quotes;
// all variants draw from identical PRNG streams. Cover/walk times one
// SelfAdjustingCoverage run per iteration at the paper's ε = 0.1,
// δ = 0.25 and reports ns per step of the walk.
func BenchmarkKernels(b *testing.B) {
	pairs := []struct {
		name string
		pair *synopsis.Admissible
	}{
		{"huge", kernelPair()},
		{"wide", wideKernelPair()},
		{"one", oneKernelPair()},
	}
	for _, p := range pairs {
		kernels := []struct {
			name string
			s    estimator.BatchSampler
		}{
			{"Natural/plain", sampler.NewNatural(p.pair)},
			{"Natural/indexed", sampler.NewNaturalIndexed(p.pair)},
			{"KL/plain", sampler.NewKL(p.pair)},
			{"KL/indexed", sampler.NewKLIndexed(p.pair)},
			{"KLM/plain", sampler.NewKLM(p.pair)},
			{"KLM/indexed", sampler.NewKLMIndexed(p.pair)},
		}
		for _, k := range kernels {
			b.Run(p.name+"/"+k.name+"/single", func(b *testing.B) {
				src := mt.New(1)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = k.s.Sample(src)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
			})
			b.Run(p.name+"/"+k.name+"/batch", func(b *testing.B) {
				src := mt.New(1)
				buf := make([]float64, 256)
				b.ReportAllocs()
				drawn := 0
				for i := 0; i < b.N; i += len(buf) {
					k.s.SampleBatch(src, buf)
					drawn += len(buf)
				}
				b.ReportMetric(float64(drawn)/b.Elapsed().Seconds(), "samples/sec")
			})
		}
		b.Run(p.name+"/Cover/walk", func(b *testing.B) {
			space := sampler.NewSymbolic(p.pair)
			b.ReportAllocs()
			var steps int64
			for i := 0; i < b.N; i++ {
				r, err := estimator.SelfAdjustingCoverageContext(context.Background(), space, 0.1, 0.25, mt.New(uint64(i)), estimator.Budget{})
				if err != nil {
					b.Fatal(err)
				}
				steps += r.Samples
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
	}
}

// BenchmarkIntraQueryParallel measures the intra-query substream fan-out
// on one expensive KL estimate over the large-|H| kernel pair: the
// legacy sequential single-stream path against the chunk-scheduled
// parallel path at 1, 2, and 4 workers. For a fixed seed the parallel
// result is identical at every pool size, so the sub-benchmarks time
// the same logical computation; wall-clock scaling tracks the number of
// cores actually available (GOMAXPROCS caps effective speedup).
func BenchmarkIntraQueryParallel(b *testing.B) {
	pair := kernelPair()
	const eps, delta = 0.05, 0.05
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		var samples int64
		for i := 0; i < b.N; i++ {
			s := sampler.NewKL(pair)
			r, err := estimator.MonteCarloContext(context.Background(), s, eps, delta, mt.New(mt.DefaultSeed), estimator.Budget{})
			if err != nil {
				b.Fatal(err)
			}
			samples = r.Samples
		}
		registerBenchResult(b, float64(samples))
	})
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			kl := sampler.NewKL(pair)
			p := estimator.Parallel{
				Seed:       mt.DefaultSeed,
				Workers:    w,
				NewSampler: func() estimator.Sampler { return kl.Fork() },
			}
			var samples int64
			for i := 0; i < b.N; i++ {
				r, err := estimator.MonteCarloParallel(context.Background(), p, eps, delta, estimator.Budget{})
				if err != nil {
					b.Fatal(err)
				}
				samples = r.Samples
			}
			registerBenchResult(b, float64(samples))
		})
	}
}

// ablationExactPair: 18 images in several small components.
func ablationExactPair() *synopsis.Admissible {
	pair := &synopsis.Admissible{}
	for c := 0; c < 6; c++ {
		base := int32(len(pair.BlockSizes))
		pair.BlockSizes = append(pair.BlockSizes, 2, 3, 2)
		pair.Images = append(pair.Images,
			synopsis.Image{{Block: base, Fact: 0}, {Block: base + 1, Fact: 1}},
			synopsis.Image{{Block: base + 1, Fact: 2}, {Block: base + 2, Fact: 0}},
			synopsis.Image{{Block: base + 2, Fact: 1}},
		)
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		panic(err)
	}
	return pair
}
