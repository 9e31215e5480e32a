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

// ConvergenceTuples bounds how many tuples of a run, in answer order,
// record a trajectory. Trajectories are per tuple, so an unbounded
// set-level run could otherwise carry thousands of them.
const ConvergenceTuples = 8

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
}

// validate rejects a negative cap; called from Options.Validate.
func (c ConvergenceOptions) validate() error {
	if c.MaxPoints < 0 {
		return fmt.Errorf("cqa: negative convergence point cap %d: %w", c.MaxPoints, ErrInvalidOptions)
	}
	return nil
}

// records reports whether tuple i (answer order) should record.
func (c ConvergenceOptions) records(i int) bool {
	return c.Enabled && i < ConvergenceTuples
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
