package cqabench

import (
	"cqabench/internal/cqaerr"
	"cqabench/internal/estimator"
)

// Sentinel errors of the public API. They are the values to test with
// errors.Is; the concrete errors returned by the library wrap them with
// situation detail (which tuple, which option, which phase).
var (
	// ErrBudget is wrapped by errors returned when an estimation
	// exceeds its Options.Budget, the per-tuple sample cap. A run's time
	// bound, like the paper's per-scenario timeout, is its context's
	// deadline, which fails with ErrCanceled.
	ErrBudget = estimator.ErrBudget

	// ErrCanceled is wrapped by errors returned when the caller's
	// context.Context is canceled or exceeds its deadline mid-run.
	// Such errors also wrap the context package's own sentinel, so
	// errors.Is(err, context.Canceled) (or context.DeadlineExceeded)
	// distinguishes the two flavors when needed.
	ErrCanceled = cqaerr.ErrCanceled

	// ErrInvalidOptions is wrapped by errors rejecting malformed
	// Options (ε or δ outside (0, 1), a negative sample budget) before
	// any sampling work starts. See Options.Validate.
	ErrInvalidOptions = cqaerr.ErrInvalidOptions
)
