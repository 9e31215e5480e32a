package estimator

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"cqabench/internal/mt"
	"cqabench/internal/sampler"
	"cqabench/internal/synopsis"
)

// bernoulli is a test sampler with known mean p.
type bernoulli struct{ p float64 }

func (b bernoulli) Sample(src *mt.Source) float64 {
	if src.Float64() < b.p {
		return 1
	}
	return 0
}

// constant always returns v.
type constant struct{ v float64 }

func (c constant) Sample(*mt.Source) float64 { return c.v }

func TestStoppingRuleAccuracy(t *testing.T) {
	for _, p := range []float64{0.9, 0.5, 0.1} {
		r, err := StoppingRuleContext(context.Background(), bernoulli{p}, 0.1, 0.1, mt.New(1), Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Estimate-p) > 0.2*p {
			t.Fatalf("p=%v: estimate %v outside twice the error bound", p, r.Estimate)
		}
		if r.Samples <= 0 {
			t.Fatal("no samples recorded")
		}
	}
}

func TestMonteCarloAccuracy(t *testing.T) {
	for seed, p := range map[uint64]float64{2: 0.8, 3: 0.5, 4: 0.2, 5: 0.05} {
		r, err := MonteCarloContext(context.Background(), bernoulli{p}, 0.1, 0.25, mt.New(seed), Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Estimate-p) > 0.1*p {
			t.Fatalf("p=%v: estimate %v outside relative error 0.1", p, r.Estimate)
		}
	}
}

func TestMonteCarloConstant(t *testing.T) {
	r, err := MonteCarloContext(context.Background(), constant{0.5}, 0.1, 0.25, mt.New(6), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Estimate != 0.5 {
		t.Fatalf("constant sampler estimate = %v", r.Estimate)
	}
}

// Statistical guarantee: the failure rate over many independent runs must
// not exceed δ by much.
func TestMonteCarloConfidence(t *testing.T) {
	const (
		runs  = 100
		p     = 0.3
		eps   = 0.2
		delta = 0.25
	)
	failures := 0
	for i := 0; i < runs; i++ {
		r, err := MonteCarloContext(context.Background(), bernoulli{p}, eps, delta, mt.New(uint64(1000+i)), Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Estimate-p) > eps*p {
			failures++
		}
	}
	// Guarantee is ≥ 1-δ; in practice far better. Allow δ + sampling slack.
	if float64(failures)/runs > delta+0.10 {
		t.Fatalf("failure rate %d/%d exceeds δ=%v by too much", failures, runs, delta)
	}
}

// drawCounter is a Sampler and a SymbolicSpace that counts its draws.
type drawCounter struct{ draws atomic.Int64 }

func (d *drawCounter) Sample(*mt.Source) float64 { d.draws.Add(1); return 1 }
func (d *drawCounter) Draw(*mt.Source) int       { d.draws.Add(1); return 0 }
func (d *drawCounter) InSet(int) bool            { return true }
func (d *drawCounter) NumImages() int            { return 1 }
func (d *drawCounter) Weight() float64           { return 1 }
func (d *drawCounter) WalkOne(_ *mt.Source, n int) {
	d.draws.Add(int64(n))
}

// TestArgumentChecks shows every estimation call rejecting an ε or δ
// outside (0, 1), NaN included, and FixedSamplesContext a mean lower
// bound that is not positive, with ErrInvalidOptions before any draw.
// The budget only bounds a call that fails to check.
func TestArgumentChecks(t *testing.T) {
	ctx := context.Background()
	budget := Budget{MaxSamples: 1000}
	type call func(d *drawCounter, eps, delta, meanLB float64) (Result, error)
	calls := map[string]call{
		"StoppingRuleContext": func(d *drawCounter, eps, delta, _ float64) (Result, error) {
			return StoppingRuleContext(ctx, d, eps, delta, mt.New(1), budget)
		},
		"MonteCarloContext": func(d *drawCounter, eps, delta, _ float64) (Result, error) {
			return MonteCarloContext(ctx, d, eps, delta, mt.New(1), budget)
		},
		"MonteCarloParallel": func(d *drawCounter, eps, delta, _ float64) (Result, error) {
			p := Parallel{Seed: 1, Workers: 2, NewSampler: func() Sampler { return d }}
			return MonteCarloParallel(ctx, p, eps, delta, budget)
		},
		"FixedSamplesContext": func(d *drawCounter, eps, delta, meanLB float64) (Result, error) {
			return FixedSamplesContext(ctx, d, eps, delta, meanLB, mt.New(1), budget)
		},
		"SelfAdjustingCoverageContext": func(d *drawCounter, eps, delta, _ float64) (Result, error) {
			return SelfAdjustingCoverageContext(ctx, d, eps, delta, mt.New(1), budget)
		},
	}
	nan := math.NaN()
	type args struct{ eps, delta, meanLB float64 }
	var bad []args
	for _, v := range []float64{0, 1, nan, -1, 3} {
		bad = append(bad, args{v, 0.25, 0.5}, args{0.25, v, 0.5})
	}
	for name, c := range calls {
		cases := bad
		if name == "FixedSamplesContext" {
			cases = append(cases, args{0.25, 0.25, 0}, args{0.25, 0.25, nan}, args{0.25, 0.25, -1})
		}
		for _, a := range cases {
			d := new(drawCounter)
			res, err := c(d, a.eps, a.delta, a.meanLB)
			if !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("%s%+v: error %v, want ErrInvalidOptions", name, a, err)
			}
			if n := d.draws.Load(); n != 0 || res != (Result{}) {
				t.Errorf("%s%+v: %d draws, result %+v; want none", name, a, n, res)
			}
		}
	}
}

// TestMonteCarloParamValidation runs MonteCarloContext on a real
// sampler: every ε or δ outside (0, 1) is refused with ErrInvalidOptions.
func TestMonteCarloParamValidation(t *testing.T) {
	for _, bad := range [][2]float64{{0, 0.1}, {1, 0.1}, {0.1, 0}, {0.1, 1}, {-1, 0.5}, {0.5, -1}} {
		_, err := MonteCarloContext(context.Background(), constant{0.5}, bad[0], bad[1], mt.New(1), Budget{})
		if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("params %v: error %v, want ErrInvalidOptions", bad, err)
		}
	}
}

func TestMonteCarloAdaptsToMean(t *testing.T) {
	// A larger mean must need fewer samples (the whole point of the
	// optimal estimator).
	rBig, err := MonteCarloContext(context.Background(), bernoulli{0.9}, 0.1, 0.25, mt.New(7), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	rSmall, err := MonteCarloContext(context.Background(), bernoulli{0.01}, 0.1, 0.25, mt.New(8), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rBig.Samples >= rSmall.Samples {
		t.Fatalf("samples(p=0.9)=%d should be < samples(p=0.01)=%d", rBig.Samples, rSmall.Samples)
	}
}

func TestBudgetMaxSamples(t *testing.T) {
	_, err := MonteCarloContext(context.Background(), bernoulli{0.5}, 0.05, 0.05, mt.New(9), Budget{MaxSamples: 10})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestBudgetDeadline(t *testing.T) {
	// Tiny mean forces enough samples to cross the deadline-check stride.
	_, err := MonteCarloContext(context.Background(), bernoulli{1e-5}, 0.1, 0.25, mt.New(10),
		Budget{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestFixedSamples(t *testing.T) {
	r, err := FixedSamplesContext(context.Background(), bernoulli{0.4}, 0.1, 0.25, 0.1, mt.New(11), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Estimate-0.4) > 0.1*0.4 {
		t.Fatalf("FixedSamples estimate = %v", r.Estimate)
	}
	if _, err := FixedSamplesContext(context.Background(), bernoulli{0.4}, 0.1, 0.25, 0, mt.New(1), Budget{}); err == nil {
		t.Fatal("zero mean lower bound accepted")
	}
}

func TestFixedSamplesWastefulVsOptimal(t *testing.T) {
	// With a loose lower bound the fixed-N estimator must draw more than
	// the optimal one on a high-mean sampler.
	fixed, err := FixedSamplesContext(context.Background(), bernoulli{0.9}, 0.1, 0.25, 0.01, mt.New(12), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := MonteCarloContext(context.Background(), bernoulli{0.9}, 0.1, 0.25, mt.New(13), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Samples >= fixed.Samples {
		t.Fatalf("optimal used %d samples, fixed-N used %d", opt.Samples, fixed.Samples)
	}
}

func coveragePair(t *testing.T) *synopsis.Admissible {
	t.Helper()
	pair := &synopsis.Admissible{
		BlockSizes: []int32{2, 3, 2},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 0}},
			{{Block: 0, Fact: 1}, {Block: 1, Fact: 1}},
			{{Block: 1, Fact: 2}, {Block: 2, Fact: 0}},
		},
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	return pair
}

func TestSelfAdjustingCoverageAccuracy(t *testing.T) {
	pair := coveragePair(t)
	want, err := pair.ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	space := sampler.NewSymbolic(pair)
	r, err := SelfAdjustingCoverageContext(context.Background(), space, 0.1, 0.25, mt.New(14), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Estimate-want) > 0.1*want {
		t.Fatalf("coverage estimate %v, want %v ± 10%%", r.Estimate, want)
	}
}

func TestSelfAdjustingCoverageConfidence(t *testing.T) {
	pair := coveragePair(t)
	want, err := pair.ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 60
	failures := 0
	for i := 0; i < runs; i++ {
		space := sampler.NewSymbolic(pair)
		r, err := SelfAdjustingCoverageContext(context.Background(), space, 0.15, 0.25, mt.New(uint64(2000+i)), Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Estimate-want) > 0.15*want {
			failures++
		}
	}
	if float64(failures)/runs > 0.25+0.12 {
		t.Fatalf("coverage failure rate %d/%d too high", failures, runs)
	}
}

func TestSelfAdjustingCoverageBudget(t *testing.T) {
	pair := coveragePair(t)
	space := sampler.NewSymbolic(pair)
	_, err := SelfAdjustingCoverageContext(context.Background(), space, 0.05, 0.05, mt.New(15), Budget{MaxSamples: 5})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// TestSelfAdjustingCoverageParamValidation runs the coverage algorithm
// on a real symbolic space: ε = 0 is refused with ErrInvalidOptions.
func TestSelfAdjustingCoverageParamValidation(t *testing.T) {
	pair := coveragePair(t)
	space := sampler.NewSymbolic(pair)
	_, err := SelfAdjustingCoverageContext(context.Background(), space, 0, 0.5, mt.New(1), Budget{})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("eps=0: error %v, want ErrInvalidOptions", err)
	}
}

func TestCoverageIterationsLinearInImages(t *testing.T) {
	n1 := CoverageIterations(10, 0.1, 0.25)
	n2 := CoverageIterations(20, 0.1, 0.25)
	if n2 < 2*n1-2 || n2 > 2*n1+2 {
		t.Fatalf("iterations not linear: N(10)=%d N(20)=%d", n1, n2)
	}
	if n1 <= 0 {
		t.Fatal("non-positive iteration count")
	}
}

// The coverage algorithm and the optimal Monte Carlo over KL must agree on
// the same pair (they estimate the same R).
func TestCoverageAgreesWithMonteCarloKL(t *testing.T) {
	pair := coveragePair(t)
	want, err := pair.ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	kl := sampler.NewKL(pair)
	mc, err := MonteCarloContext(context.Background(), kl, 0.1, 0.25, mt.New(16), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	klEst := mc.Estimate * kl.Weight()
	cov, err := SelfAdjustingCoverageContext(context.Background(), sampler.NewSymbolic(pair), 0.1, 0.25, mt.New(17), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(klEst-want) > 0.1*want || math.Abs(cov.Estimate-want) > 0.1*want {
		t.Fatalf("KL=%v Cover=%v want %v", klEst, cov.Estimate, want)
	}
}

func BenchmarkMonteCarloNatural(b *testing.B) {
	pair := &synopsis.Admissible{
		BlockSizes: []int32{2, 2, 3},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 0}},
			{{Block: 1, Fact: 1}, {Block: 2, Fact: 2}},
		},
	}
	pair.Canonicalize()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MonteCarloContext(context.Background(), sampler.NewNatural(pair), 0.1, 0.25, mt.New(uint64(i)), Budget{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMonteCarloPhaseAccounting(t *testing.T) {
	r, err := MonteCarloContext(context.Background(), bernoulli{0.4}, 0.15, 0.25, mt.New(21), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, p := range r.Phases {
		if p <= 0 {
			t.Fatalf("phase with no samples: %v", r.Phases)
		}
		sum += p
	}
	if sum != r.Samples {
		t.Fatalf("phases sum to %d, total %d", sum, r.Samples)
	}
}
