package estimator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"cqabench/internal/mt"
	"cqabench/internal/sampler"
	"cqabench/internal/synopsis"
)

// This file pins the batched estimation loops to the unbatched originals:
// seqStoppingRule, seqMonteCarlo and seqFixedSamples are verbatim copies
// of the one-sample-at-a-time loops the batched versions replaced, and
// seqCoverage of the coverage walk's step loop. For any sampler and
// budget, the batched loops must return byte-identical estimates,
// sample counts, phase breakdowns and errors.

func seqStoppingRule(s Sampler, eps, delta float64, src *mt.Source, budget Budget) (Result, error) {
	bt := newTracker(nil, budget)
	upsilon1 := 1 + (1+eps)*upsilon(eps, delta)
	sum := 0.0
	var n int64
	for sum < upsilon1 {
		if err := bt.charge(1); err != nil {
			return Result{Samples: bt.samples}, err
		}
		sum += s.Sample(src)
		n++
	}
	return Result{Estimate: upsilon1 / float64(n), Samples: bt.samples}, nil
}

func seqMonteCarlo(s Sampler, eps, delta float64, src *mt.Source, budget Budget) (Result, error) {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		return Result{}, errors.New("estimator: require 0 < eps < 1 and 0 < delta < 1")
	}
	bt := newTracker(nil, budget)

	eps1 := math.Min(0.5, math.Sqrt(eps))
	sub := budget
	r1, err := seqStoppingRule(s, eps1, delta/3, src, sub)
	bt.samples = r1.Samples
	if err != nil {
		return Result{Samples: bt.samples}, err
	}
	muHat := r1.Estimate

	phase1 := bt.samples

	ups := upsilon(eps, delta/3)
	ups2 := 2 * (1 + math.Sqrt(eps)) * (1 + 2*math.Sqrt(eps)) *
		(1 + math.Log(1.5)/math.Log(2/(delta/3))) * ups
	n2 := int64(math.Ceil(ups2 * eps / muHat))
	if n2 < 1 {
		n2 = 1
	}
	var sq float64
	for i := int64(0); i < n2; i++ {
		if err := bt.charge(2); err != nil {
			return Result{Samples: bt.samples}, err
		}
		a := s.Sample(src)
		b := s.Sample(src)
		d := a - b
		sq += d * d / 2
	}
	rhoHat := math.Max(sq/float64(n2), eps*muHat)
	phase2 := bt.samples - phase1

	n3 := int64(math.Ceil(ups2 * rhoHat / (muHat * muHat)))
	if n3 < 1 {
		n3 = 1
	}
	var sum float64
	for i := int64(0); i < n3; i++ {
		if err := bt.charge(1); err != nil {
			return Result{Samples: bt.samples}, err
		}
		sum += s.Sample(src)
	}
	return Result{
		Estimate: sum / float64(n3),
		Samples:  bt.samples,
		Phases:   [3]int64{phase1, phase2, bt.samples - phase1 - phase2},
	}, nil
}

func seqFixedSamples(s Sampler, eps, delta, meanLB float64, src *mt.Source, budget Budget) (Result, error) {
	if meanLB <= 0 {
		return Result{}, errors.New("estimator: FixedSamples requires a positive mean lower bound")
	}
	bt := newTracker(nil, budget)
	n := int64(math.Ceil(upsilon(eps, delta) / meanLB))
	if n < 1 {
		n = 1
	}
	var sum float64
	for i := int64(0); i < n; i++ {
		if err := bt.charge(1); err != nil {
			return Result{Samples: bt.samples}, err
		}
		sum += s.Sample(src)
	}
	return Result{Estimate: sum / float64(n), Samples: bt.samples}, nil
}

func seqCoverage(ctx context.Context, space SymbolicSpace, eps, delta float64, src *mt.Source, budget Budget) (Result, error) {
	bt := newTracker(ctx, budget)
	rec := RecorderFrom(ctx)
	m := space.NumImages()
	n := int64(math.Ceil(8 * (1 + eps) * float64(m) * math.Log(3/delta) /
		((1 - eps*eps/8) * eps * eps)))

	bound := mt.NewBound(m) // the walk's Intn(m), compiled
	var steps, total, trials int64
outer:
	for {
		space.Draw(src)
		for {
			steps++
			if steps > n {
				break outer
			}
			if err := bt.charge(1); err != nil {
				return Result{Samples: bt.samples}, err
			}
			// The coverage walk charges one draw per step, so checkpoints
			// land every ctxStride steps — the same cadence as the batched
			// loops' chunk boundaries.
			if rec != nil && steps%ctxStride == 0 {
				tr, tot := trials, total
				if tr == 0 {
					tr, tot = 1, steps
				}
				rec.observe(TrajectoryPoint{
					Samples:  bt.samples,
					Estimate: float64(tot) * space.Weight() / (float64(m) * float64(tr)),
					Progress: float64(steps) / float64(n),
					Phase:    "coverage",
				})
			}
			j := bound.Draw(src)
			if space.InSet(j) {
				break
			}
		}
		total = steps
		trials++
	}
	if trials == 0 {
		// The first trial alone exceeded the step budget: the expected
		// steps per trial, m·|∪|/|S•|, is larger than N, so the union is
		// essentially all of the space; report the most conservative
		// estimate the data supports.
		total, trials = n, 1
	}
	// |∪| ≈ (total/trials) · |S•| / m; normalize by |db(B)|.
	est := float64(total) * space.Weight() / (float64(m) * float64(trials))
	if rec != nil {
		rec.final(TrajectoryPoint{
			Samples: bt.samples, Estimate: est, Progress: 1, Phase: "coverage",
		})
	}
	return Result{Estimate: est, Samples: bt.samples}, nil
}

// refPair builds a small admissible pair exercising all samplers.
func refPair() *synopsis.Admissible {
	pair := &synopsis.Admissible{
		BlockSizes: []int32{2, 3, 2},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 0}},
			{{Block: 0, Fact: 0}, {Block: 1, Fact: 1}},
			{{Block: 1, Fact: 2}, {Block: 2, Fact: 0}},
		},
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		panic(err)
	}
	return pair
}

// refOneBlock is the degenerate single-block shape.
func refOneBlock() *synopsis.Admissible {
	pair := &synopsis.Admissible{
		BlockSizes: []int32{4},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 1}},
			{{Block: 0, Fact: 3}},
		},
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		panic(err)
	}
	return pair
}

// refOneImage is the degenerate single-image shape (every KL sample is 1).
func refOneImage() *synopsis.Admissible {
	pair := &synopsis.Admissible{
		BlockSizes: []int32{3, 3, 3},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 0}, {Block: 1, Fact: 1}, {Block: 2, Fact: 2}},
		},
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		panic(err)
	}
	return pair
}

// refSamplers enumerates every kernel over a pair.
func refSamplers(pair *synopsis.Admissible) map[string]func() Sampler {
	return map[string]func() Sampler{
		"Natural":        func() Sampler { return sampler.NewNatural(pair) },
		"NaturalIndexed": func() Sampler { return sampler.NewNaturalIndexed(pair) },
		"KL":             func() Sampler { return sampler.NewKL(pair) },
		"KLIndexed":      func() Sampler { return sampler.NewKLIndexed(pair) },
		"KLM":            func() Sampler { return sampler.NewKLM(pair) },
		"KLMIndexed":     func() Sampler { return sampler.NewKLMIndexed(pair) },
	}
}

func sameResult(t *testing.T, tag string, seq, bat Result, seqErr, batErr error) {
	t.Helper()
	if (seqErr == nil) != (batErr == nil) {
		t.Fatalf("%s: errors differ: sequential %v vs batched %v", tag, seqErr, batErr)
	}
	if seqErr != nil && !errors.Is(batErr, ErrBudget) {
		t.Fatalf("%s: batched error %v does not wrap ErrBudget", tag, batErr)
	}
	if math.Float64bits(seq.Estimate) != math.Float64bits(bat.Estimate) {
		t.Fatalf("%s: estimates differ: %x vs %x (%v vs %v)", tag,
			math.Float64bits(seq.Estimate), math.Float64bits(bat.Estimate), seq.Estimate, bat.Estimate)
	}
	if seq.Samples != bat.Samples {
		t.Fatalf("%s: sample counts differ: %d vs %d", tag, seq.Samples, bat.Samples)
	}
	if seq.Phases != bat.Phases {
		t.Fatalf("%s: phase breakdowns differ: %v vs %v", tag, seq.Phases, bat.Phases)
	}
}

// TestBatchedLoopsMatchSequential is the core equivalence property: for
// every kernel, shape (including one-block and one-image degenerates),
// seed, and budget (including exhaustion mid-phase), the batched
// estimators return byte-identical results to the sequential reference.
// On the one-image shape, KL and KLM read no value, so they also run on
// a nil source, against the reference on a live one.
func TestBatchedLoopsMatchSequential(t *testing.T) {
	pairs := map[string]*synopsis.Admissible{
		"small":     refPair(),
		"one-block": refOneBlock(),
		"one-image": refOneImage(),
	}
	seeds := []uint64{1, 42, mt.DefaultSeed}
	// 0 = unlimited; the small values force exhaustion in phase 1; the
	// mid-range ones inside phases 2 and 3 of MonteCarlo.
	budgets := []int64{0, 1, 37, 500, 5000, 20000}
	for pname, pair := range pairs {
		for sname, mk := range refSamplers(pair) {
			for _, seed := range seeds {
				for _, max := range budgets {
					budget := Budget{MaxSamples: max}
					tag := pname + "/" + sname

					seq, seqErr := seqStoppingRule(mk(), 0.3, 0.2, mt.New(seed), budget)
					bat, batErr := stoppingRule(context.Background(), mk(), 0.3, 0.2, mt.New(seed), budget)
					sameResult(t, tag+"/StoppingRule", seq, bat, seqErr, batErr)

					seq, seqErr = seqMonteCarlo(mk(), 0.25, 0.3, mt.New(seed), budget)
					bat, batErr = MonteCarloContext(context.Background(), mk(), 0.25, 0.3, mt.New(seed), budget)
					sameResult(t, tag+"/MonteCarlo", seq, bat, seqErr, batErr)
					if pname == "one-image" && (sname == "KL" || sname == "KLM") {
						bat, batErr = MonteCarloContext(context.Background(), mk(), 0.25, 0.3, nil, budget)
						sameResult(t, tag+"/MonteCarlo/nil source", seq, bat, seqErr, batErr)
					}

					seq, seqErr = seqFixedSamples(mk(), 0.3, 0.3, 0.05, mt.New(seed), budget)
					bat, batErr = fixedSamples(context.Background(), mk(), 0.3, 0.3, 0.05, mt.New(seed), budget)
					sameResult(t, tag+"/FixedSamples", seq, bat, seqErr, batErr)
				}
			}
		}
	}
}

// TestBatchedFallbackSampler pins the non-batch-capable path: a Sampler
// that does not implement BatchSampler must go through the Sample-loop
// fallback and still match the sequential reference exactly.
type plainOnly struct{ s Sampler }

func (p plainOnly) Sample(src *mt.Source) float64 { return p.s.Sample(src) }

func TestBatchedFallbackSampler(t *testing.T) {
	pair := refPair()
	for _, max := range []int64{0, 37, 5000} {
		budget := Budget{MaxSamples: max}
		seq, seqErr := seqMonteCarlo(plainOnly{sampler.NewKL(pair)}, 0.25, 0.3, mt.New(7), budget)
		bat, batErr := MonteCarloContext(context.Background(), plainOnly{sampler.NewKL(pair)}, 0.25, 0.3, mt.New(7), budget)
		sameResult(t, "fallback/MonteCarlo", seq, bat, seqErr, batErr)
	}
}

// TestReserveAccounting pins reserve()'s failure accounting to charge()'s:
// exhaustion must leave samples exactly one unit past MaxSamples.
func TestReserveAccounting(t *testing.T) {
	for _, unit := range []int64{1, 2} {
		bt := newTracker(nil, Budget{MaxSamples: 10})
		var total int64
		for {
			got, err := bt.reserve(4, unit)
			if err != nil {
				break
			}
			total += got
		}
		if want := 10 / unit; total != int64(want) {
			t.Fatalf("unit %d: granted %d iterations, want %d", unit, total, want)
		}
		if bt.samples != 10/unit*unit+unit {
			t.Fatalf("unit %d: failure left samples=%d, want %d", unit, bt.samples, 10/unit*unit+unit)
		}
	}
}

// oneImagePair is a one-image pair over blocks of the given sizes.
func oneImagePair(sizes ...int32) *synopsis.Admissible {
	pair := &synopsis.Admissible{BlockSizes: sizes, Images: make([]synopsis.Image, 1)}
	for b, sz := range sizes {
		pair.Images[0] = append(pair.Images[0], synopsis.Member{Block: int32(b), Fact: sz - 1})
	}
	if err := pair.Validate(); err != nil {
		panic(err)
	}
	return pair
}

// TestBatchedCoverageMatchesStepLoop pins the coverage walk of a
// one-image pair, which charges and advances a chunk of steps at a
// time, to the step loop: the same estimate, Samples and stream
// position on success, and the same Samples and error on every budget,
// deadline and cancellation failure. The walk reads no value, so it
// also runs on a nil source, against the step loop on a live one, in
// every case. With a recorder attached the walk observes at the step
// loop's checkpoints with the step loop's values, on a live source and
// on a nil one, and the trajectories must agree as well.
func TestBatchedCoverageMatchesStepLoop(t *testing.T) {
	pairs := map[string]*synopsis.Admissible{
		"size 1":        oneImagePair(1),
		"powers of two": oneImagePair(2, 4),
		"other sizes":   oneImagePair(3, 5),
		"mixed":         oneImagePair(1, 2, 3, 1, 5, 24),
	}
	const eps, delta = 0.1, 0.25
	n := CoverageIterations(1, eps, delta)
	if CoverageIterations(1, 0.05, delta) <= ctxStride {
		t.Fatal("the deadline run takes no more steps than one deadline check")
	}
	bg := context.Background()
	live, stop := context.WithCancel(bg)
	defer stop()
	canceled, cancel := context.WithCancel(bg)
	cancel()
	expired, stopExpired := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer stopExpired()
	type run struct {
		name   string
		ctx    context.Context
		eps    float64
		budget Budget
		fails  error // the sentinel the step loop's error wraps; nil: none
	}
	runs := []run{
		{"unlimited", bg, eps, Budget{}, nil},
		{"live context", live, eps, Budget{}, nil},
		{"deadline passed", expired, 0.05, Budget{}, context.DeadlineExceeded},
		{"canceled", canceled, eps, Budget{}, context.Canceled},
	}
	for _, max := range []int64{1, 255, 256, 257, n - 1, n} {
		r := run{fmt.Sprintf("MaxSamples %d", max), live, eps, Budget{MaxSamples: max}, nil}
		if max < n {
			r.fails = ErrBudget
		}
		runs = append(runs, r)
	}
	for pname, pair := range pairs {
		for _, r := range runs {
			for _, seed := range []uint64{1, mt.DefaultSeed} {
				tag := fmt.Sprintf("%s/%s/seed %d", pname, r.name, seed)
				s1, s2 := mt.New(seed), mt.New(seed)
				want, wantErr := seqCoverage(r.ctx, sampler.NewSymbolic(pair), r.eps, delta, s1, r.budget)
				got, gotErr := SelfAdjustingCoverageContext(r.ctx, sampler.NewSymbolic(pair), r.eps, delta, s2, r.budget)
				if !errors.Is(wantErr, r.fails) {
					t.Fatalf("%s: the step loop returns %v, want %v", tag, wantErr, r.fails)
				}
				sameCoverage(t, tag, want, got, wantErr, gotErr, s1, s2)
				got, gotErr = SelfAdjustingCoverageContext(r.ctx, sampler.NewSymbolic(pair), r.eps, delta, nil, r.budget)
				sameCoverage(t, tag+"/nil source", want, got, wantErr, gotErr, nil, nil)
			}
		}
		rec1 := NewRecorder(0)
		s1 := mt.New(3)
		want, wantErr := seqCoverage(WithRecorder(bg, rec1), sampler.NewSymbolic(pair), eps, delta, s1, Budget{})
		for _, src := range []*mt.Source{mt.New(3), nil} {
			tag, ref := pname+"/recorder", s1
			if src == nil {
				tag, ref = tag+"/nil source", nil
			}
			rec2 := NewRecorder(0)
			got, gotErr := SelfAdjustingCoverageContext(WithRecorder(bg, rec2), sampler.NewSymbolic(pair), eps, delta, src, Budget{})
			sameCoverage(t, tag, want, got, wantErr, gotErr, ref, src)
			if p1, p2 := rec1.Points(), rec2.Points(); len(p1) < 2 || !slices.Equal(p1, p2) {
				t.Fatalf("%s: trajectories differ: %v vs %v", tag, p1, p2)
			}
		}
	}
}

// sameCoverage fails the test unless two coverage runs agree: the same
// error kind and Samples, and on success the same estimate bits and,
// unless s1 is nil, stream position.
func sameCoverage(t *testing.T, tag string, want, got Result, wantErr, gotErr error, s1, s2 *mt.Source) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: errors differ: step loop %v, walk %v", tag, wantErr, gotErr)
	}
	for _, kind := range []error{ErrBudget, ErrCanceled, context.DeadlineExceeded} {
		if errors.Is(wantErr, kind) != errors.Is(gotErr, kind) {
			t.Fatalf("%s: errors differ: step loop %v, walk %v", tag, wantErr, gotErr)
		}
	}
	if want.Samples != got.Samples {
		t.Fatalf("%s: Samples differ: step loop %d, walk %d", tag, want.Samples, got.Samples)
	}
	if wantErr != nil {
		return
	}
	if math.Float64bits(want.Estimate) != math.Float64bits(got.Estimate) {
		t.Fatalf("%s: estimates differ: %v vs %v", tag, want.Estimate, got.Estimate)
	}
	for i := 0; s1 != nil && i < 4; i++ {
		if a, b := s1.Uint64(), s2.Uint64(); a != b {
			t.Fatalf("%s: streams diverged: %x vs %x", tag, a, b)
		}
	}
}
