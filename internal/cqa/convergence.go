package cqa

import (
	"fmt"

	"cqabench/internal/estimator"
)

// Convergence recording at the scheme level: when opted in via
// Options.Convergence, every per-tuple estimation attaches an
// estimator.Recorder and the resulting bounded trajectories are returned
// on Stats.Convergence. Recording is strictly passive — it observes the
// loops at their existing chunk boundaries and never touches the PRNG —
// so estimates and sample counts are bit-identical with recording on or
// off (see TestConvergenceRecordingPreservesAnswers).

// DefaultConvergenceTuples bounds how many tuples of a run record a
// trajectory when ConvergenceOptions.MaxTuples is zero. Trajectories are
// per tuple, so an unbounded set-level run could otherwise carry
// thousands of them.
const DefaultConvergenceTuples = 16

// ConvergenceOptions opts an approximation run into convergence
// recording. The zero value — recording off — is the default and adds no
// overhead.
type ConvergenceOptions struct {
	// Enabled turns trajectory recording on.
	Enabled bool
	// MaxPoints caps each tuple's trajectory; when the cap is reached the
	// recorder halves its resolution (estimator.Recorder). 0 selects
	// estimator.DefaultTrajectoryPoints.
	MaxPoints int
	// MaxTuples caps how many tuples (in answer order) record a
	// trajectory. 0 selects DefaultConvergenceTuples.
	MaxTuples int
}

// validate rejects negative caps; called from Options.Validate.
func (c ConvergenceOptions) validate() error {
	if c.MaxPoints < 0 {
		return fmt.Errorf("cqa: negative convergence point cap %d: %w", c.MaxPoints, ErrInvalidOptions)
	}
	if c.MaxTuples < 0 {
		return fmt.Errorf("cqa: negative convergence tuple cap %d: %w", c.MaxTuples, ErrInvalidOptions)
	}
	return nil
}

// tupleCap resolves the effective MaxTuples.
func (c ConvergenceOptions) tupleCap() int {
	if c.MaxTuples > 0 {
		return c.MaxTuples
	}
	return DefaultConvergenceTuples
}

// records reports whether tuple i (answer order) should record.
func (c ConvergenceOptions) records(i int) bool {
	return c.Enabled && i < c.tupleCap()
}

// TupleTrajectory is one tuple's recorded convergence trajectory.
type TupleTrajectory struct {
	// Tuple is the tuple's index in the run's answer order (the same
	// order ApxAnswersFromSetContext returns).
	Tuple int `json:"tuple"`
	// Points is the bounded checkpoint sequence, ending with the exact
	// final estimate and sample count.
	Points []estimator.TrajectoryPoint `json:"points"`
}
