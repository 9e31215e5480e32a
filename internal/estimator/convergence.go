package estimator

import "context"

// Convergence telemetry: an estimation loop can be observed while it
// runs, at the same 256-draw chunk boundaries the batched fast path and
// the cancellation polling already use. A Recorder captures checkpoints
// — the running estimate, the draws consumed so far, and the stopping
// rule's progress toward its termination condition — into a bounded
// trajectory.
//
// Recording is strictly passive: the recorder never touches the PRNG,
// never changes chunk sizes, and is only consulted where the loops
// already pause (chunk boundaries, or every ctxStride steps for the
// one-at-a-time coverage walk). A run with no recorder attached is
// byte-identical to one that was never instrumented, and a recorded run
// produces byte-identical estimates and sample counts — the trajectory
// is a pure observation.

// TrajectoryPoint is one checkpoint of a running estimation.
type TrajectoryPoint struct {
	// Samples is the total draws charged against the budget so far.
	Samples int64 `json:"samples"`
	// Estimate is the running value of the phase's own statistic: the
	// sample mean for the stopping rule and the final run, the running
	// variance estimate for the 𝒜𝒜 variance phase, and the normalized
	// union estimate for the coverage walk.
	Estimate float64 `json:"estimate"`
	// Progress is the stopping-rule progress in [0, 1]: the Υ1-sum
	// fraction for the stopping rule, the completed-iteration fraction
	// for fixed-count loops, and the step fraction for the coverage walk.
	Progress float64 `json:"progress"`
	// Phase names the loop that produced the point: "stopping",
	// "variance" or "final" for the 𝒜𝒜 algorithm, which Natural, KL and
	// KLM run, and "coverage" for Cover's walk.
	Phase string `json:"phase"`
}

// DefaultTrajectoryPoints bounds a Recorder's trajectory when no
// explicit capacity is given.
const DefaultTrajectoryPoints = 256

// Recorder captures a bounded convergence trajectory. When the bound is
// reached, every other retained point is dropped and the retention
// stride doubles, so the trajectory always spans the whole run at
// uniform (power-of-two) chunk granularity within the fixed capacity.
// A Recorder is not safe for concurrent use; attach one per estimation.
type Recorder struct {
	max    int
	stride int64 // retain every stride-th offered checkpoint
	seen   int64 // checkpoints offered so far
	points []TrajectoryPoint
}

// NewRecorder returns a Recorder holding at most maxPoints checkpoints
// (<= 0 selects DefaultTrajectoryPoints; the minimum capacity is 2 so a
// trajectory can always hold a first and a final point).
func NewRecorder(maxPoints int) *Recorder {
	if maxPoints <= 0 {
		maxPoints = DefaultTrajectoryPoints
	}
	if maxPoints < 2 {
		maxPoints = 2
	}
	return &Recorder{max: maxPoints, stride: 1}
}

// Points returns the captured trajectory in observation order. The
// returned slice is the recorder's own backing store; callers that keep
// it must not reuse the recorder.
func (r *Recorder) Points() []TrajectoryPoint { return r.points }

// observe offers one checkpoint; only every stride-th offered point is
// retained. Retained checkpoints are those whose offer ordinal is a
// multiple of the stride, which compact preserves when it doubles it.
func (r *Recorder) observe(p TrajectoryPoint) {
	ord := r.seen
	r.seen++
	if ord%r.stride != 0 {
		return
	}
	if len(r.points) >= r.max {
		r.compact()
		if ord%r.stride != 0 {
			return
		}
	}
	r.points = append(r.points, p)
}

// final force-appends the loop's terminal state regardless of stride, so
// every trajectory ends with the exact final estimate and sample count.
func (r *Recorder) final(p TrajectoryPoint) {
	if len(r.points) >= r.max {
		r.compact()
	}
	r.points = append(r.points, p)
}

// compact drops every other retained point and doubles the stride.
func (r *Recorder) compact() {
	kept := r.points[:0]
	for i := 0; i < len(r.points); i += 2 {
		kept = append(kept, r.points[i])
	}
	r.points = kept
	r.stride *= 2
}

// recorderKey carries a Recorder on a context.
type recorderKey struct{}

// WithRecorder attaches rec to ctx; every estimator entry point checks
// for one and, when present, records its convergence trajectory into it.
// A nil rec returns ctx unchanged.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, recorderKey{}, rec)
}

// RecorderFrom returns the context's attached Recorder, or nil.
func RecorderFrom(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	rec, _ := ctx.Value(recorderKey{}).(*Recorder)
	return rec
}
