package estimator

import (
	"context"
	"math"
	"testing"

	"cqabench/internal/mt"
	"cqabench/internal/sampler"
)

func TestRecorderBoundedCompaction(t *testing.T) {
	rec := NewRecorder(8)
	const offered = 1000
	for i := 0; i < offered; i++ {
		rec.observe(TrajectoryPoint{Samples: int64(i), Phase: "stopping"})
	}
	pts := rec.Points()
	if len(pts) > 8 {
		t.Fatalf("trajectory has %d points, capacity 8", len(pts))
	}
	if len(pts) < 4 {
		t.Fatalf("trajectory over-compacted: %d points for %d offers", len(pts), offered)
	}
	// The first offered checkpoint always survives compaction, and retained
	// ordinals must be equally spaced multiples of a power-of-two stride.
	if pts[0].Samples != 0 {
		t.Fatalf("first point ordinal %d, want 0", pts[0].Samples)
	}
	stride := pts[1].Samples - pts[0].Samples
	if stride <= 0 || stride&(stride-1) != 0 {
		t.Fatalf("stride %d is not a positive power of two", stride)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Samples-pts[i-1].Samples != stride {
			t.Fatalf("uneven spacing at %d: %v", i, pts)
		}
	}
}

func TestRecorderFinalAlwaysRetained(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 100; i++ {
		rec.observe(TrajectoryPoint{Samples: int64(i)})
	}
	rec.final(TrajectoryPoint{Samples: 12345, Progress: 1})
	pts := rec.Points()
	if len(pts) == 0 || len(pts) > 4 {
		t.Fatalf("got %d points, want 1..4", len(pts))
	}
	last := pts[len(pts)-1]
	if last.Samples != 12345 || last.Progress != 1 {
		t.Fatalf("final point not retained: %+v", last)
	}
}

func TestNewRecorderDefaults(t *testing.T) {
	if got := NewRecorder(0).max; got != DefaultTrajectoryPoints {
		t.Fatalf("NewRecorder(0).max = %d, want %d", got, DefaultTrajectoryPoints)
	}
	if got := NewRecorder(1).max; got != 2 {
		t.Fatalf("NewRecorder(1).max = %d, want 2", got)
	}
}

func TestWithRecorderRoundTrip(t *testing.T) {
	if RecorderFrom(context.Background()) != nil {
		t.Fatal("plain context carries a recorder")
	}
	if RecorderFrom(nil) != nil {
		t.Fatal("nil context carries a recorder")
	}
	rec := NewRecorder(16)
	ctx := WithRecorder(context.Background(), rec)
	if RecorderFrom(ctx) != rec {
		t.Fatal("recorder did not round-trip through the context")
	}
	if got := WithRecorder(context.Background(), nil); RecorderFrom(got) != nil {
		t.Fatal("WithRecorder(nil) attached something")
	}
}

// checkTrajectory verifies the invariants every recorded run must satisfy:
// a non-empty trajectory whose sample counts never decrease, whose progress
// stays in [0, 1], and whose last point reports the run's exact final
// estimate and sample count with progress 1.
func checkTrajectory(t *testing.T, pts []TrajectoryPoint, res Result, phases ...string) {
	t.Helper()
	if len(pts) == 0 {
		t.Fatal("empty trajectory")
	}
	valid := map[string]bool{}
	for _, p := range phases {
		valid[p] = true
	}
	var prev int64
	for i, p := range pts {
		if p.Samples < prev {
			t.Fatalf("point %d: samples went backwards (%d after %d)", i, p.Samples, prev)
		}
		prev = p.Samples
		if p.Progress < 0 || p.Progress > 1 {
			t.Fatalf("point %d: progress %v outside [0,1]", i, p.Progress)
		}
		if !valid[p.Phase] {
			t.Fatalf("point %d: unexpected phase %q", i, p.Phase)
		}
		if math.IsNaN(p.Estimate) || math.IsInf(p.Estimate, 0) {
			t.Fatalf("point %d: estimate %v", i, p.Estimate)
		}
	}
	last := pts[len(pts)-1]
	if last.Estimate != res.Estimate || last.Samples != res.Samples || last.Progress != 1 {
		t.Fatalf("final point %+v does not match result %+v", last, res)
	}
}

func TestStoppingRuleTrajectory(t *testing.T) {
	rec := NewRecorder(0)
	ctx := WithRecorder(context.Background(), rec)
	res, err := stoppingRule(ctx, bernoulli{0.3}, 0.1, 0.1, mt.New(31), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	checkTrajectory(t, rec.Points(), res, "stopping")
}

func TestMonteCarloTrajectory(t *testing.T) {
	rec := NewRecorder(0)
	ctx := WithRecorder(context.Background(), rec)
	res, err := MonteCarloContext(ctx, bernoulli{0.3}, 0.1, 0.25, mt.New(32), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	pts := rec.Points()
	checkTrajectory(t, pts, res, "stopping", "variance", "final")
	seen := map[string]bool{}
	for _, p := range pts {
		seen[p.Phase] = true
	}
	for _, phase := range []string{"stopping", "variance", "final"} {
		if !seen[phase] {
			t.Fatalf("no %q checkpoints in %d-point trajectory", phase, len(pts))
		}
	}
}

func TestFixedSamplesTrajectory(t *testing.T) {
	rec := NewRecorder(0)
	ctx := WithRecorder(context.Background(), rec)
	res, err := fixedSamples(ctx, bernoulli{0.4}, 0.1, 0.25, 0.1, mt.New(33), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	checkTrajectory(t, rec.Points(), res, "final")
}

func TestCoverageTrajectory(t *testing.T) {
	pair := coveragePair(t)
	rec := NewRecorder(0)
	ctx := WithRecorder(context.Background(), rec)
	res, err := SelfAdjustingCoverageContext(ctx, sampler.NewSymbolic(pair), 0.1, 0.25, mt.New(34), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	checkTrajectory(t, rec.Points(), res, "coverage")
}

// Recording is passive: a recorded run must return byte-identical estimates
// and sample counts to the same run without a recorder. This is the
// invariant that keeps kernel_golden.json and the reference tests valid.
func TestRecordingPreservesResults(t *testing.T) {
	pair := coveragePair(t)
	runs := []struct {
		name string
		run  func(ctx context.Context) (Result, error)
	}{
		{"stopping", func(ctx context.Context) (Result, error) {
			return stoppingRule(ctx, bernoulli{0.3}, 0.1, 0.1, mt.New(41), Budget{})
		}},
		{"montecarlo", func(ctx context.Context) (Result, error) {
			return MonteCarloContext(ctx, bernoulli{0.3}, 0.1, 0.25, mt.New(42), Budget{})
		}},
		{"fixed", func(ctx context.Context) (Result, error) {
			return fixedSamples(ctx, bernoulli{0.4}, 0.1, 0.25, 0.1, mt.New(43), Budget{})
		}},
		{"coverage", func(ctx context.Context) (Result, error) {
			return SelfAdjustingCoverageContext(ctx, sampler.NewSymbolic(pair), 0.1, 0.25, mt.New(44), Budget{})
		}},
		{"kl", func(ctx context.Context) (Result, error) {
			return MonteCarloContext(ctx, sampler.NewKL(pair), 0.1, 0.25, mt.New(45), Budget{})
		}},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := tc.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			rec := NewRecorder(32)
			recorded, err := tc.run(WithRecorder(context.Background(), rec))
			if err != nil {
				t.Fatal(err)
			}
			if plain != recorded {
				t.Fatalf("recording changed the result:\nplain    %+v\nrecorded %+v", plain, recorded)
			}
			if len(rec.Points()) == 0 {
				t.Fatal("no trajectory recorded")
			}
		})
	}
}
