package harness

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/scenario"
	"cqabench/internal/synopsis"
)

// AccuracyReport audits the (ε, δ) guarantee empirically: per scheme, it
// compares every approximate relative frequency against the exact value
// (by component-decomposed inclusion–exclusion) and aggregates error
// statistics. The paper takes the guarantee from [8, 15]; this report is
// the infrastructure for checking implementations against it — one of the
// benchmark's declared uses ("evaluating algorithms that target the exact
// relative frequency").
type AccuracyReport struct {
	Eps, Delta float64
	Schemes    []SchemeAccuracy
	// SkippedTuples counts tuples whose exact frequency was intractable
	// (entangled component too large) and were excluded from the audit.
	SkippedTuples int
}

// SchemeAccuracy aggregates one scheme's empirical error behaviour.
type SchemeAccuracy struct {
	Scheme cqa.Scheme
	// Tuples audited.
	Tuples int
	// WithinEps counts estimates with |a − f| ≤ ε·f.
	WithinEps int
	// MaxRelErr and MeanRelErr summarize |a − f| / f over audited tuples
	// with f > 0.
	MaxRelErr  float64
	MeanRelErr float64
}

// SuccessRate returns the fraction of audited tuples within the ε band;
// the guarantee demands at least 1 − δ.
func (s SchemeAccuracy) SuccessRate() float64 {
	if s.Tuples == 0 {
		return 1
	}
	return float64(s.WithinEps) / float64(s.Tuples)
}

// Accuracy runs every configured scheme over the workload's synopses and
// audits each estimate against the exact relative frequency. maxImages
// bounds the exact computation per entangled component (0 = default).
func Accuracy(w *scenario.Workload, cfg Config, maxImages int) (*AccuracyReport, error) {
	schemes := cfg.Schemes
	if len(schemes) == 0 {
		schemes = cqa.Schemes
	}
	rep := &AccuracyReport{Eps: cfg.Opts.Eps, Delta: cfg.Opts.Delta}
	acc := make(map[cqa.Scheme]*SchemeAccuracy, len(schemes))
	for _, s := range schemes {
		acc[s] = &SchemeAccuracy{Scheme: s}
	}
	for _, pair := range w.Pairs {
		set, err := synopsis.Build(pair.DB, pair.Query)
		if err != nil {
			return nil, err
		}
		exact := make([]float64, len(set.Entries))
		audit := make([]bool, len(set.Entries))
		for i := range set.Entries {
			r, err := set.Entries[i].Pair.ExactRatioDecomposed(maxImages)
			if err != nil {
				if errors.Is(err, synopsis.ErrTooLarge) {
					rep.SkippedTuples++
					continue
				}
				return nil, err
			}
			exact[i], audit[i] = r, true
		}
		for _, s := range schemes {
			opts := cfg.Opts
			if cfg.Timeout > 0 {
				opts.Budget.Deadline = time.Now().Add(cfg.Timeout)
			}
			res, _, err := cqa.ApxAnswersFromSetContext(cfg.context(), set, s, opts)
			if err != nil {
				// Timeouts leave this pair unaudited for the scheme.
				continue
			}
			a := acc[s]
			for i, tf := range res {
				if !audit[i] || exact[i] <= 0 {
					continue
				}
				relErr := math.Abs(tf.Freq-exact[i]) / exact[i]
				a.Tuples++
				a.MeanRelErr += relErr
				if relErr > a.MaxRelErr {
					a.MaxRelErr = relErr
				}
				if relErr <= cfg.Opts.Eps+1e-12 {
					a.WithinEps++
				}
			}
		}
	}
	for _, s := range schemes {
		a := acc[s]
		if a.Tuples > 0 {
			a.MeanRelErr /= float64(a.Tuples)
		}
		rep.Schemes = append(rep.Schemes, *a)
	}
	sort.Slice(rep.Schemes, func(i, j int) bool { return rep.Schemes[i].Scheme < rep.Schemes[j].Scheme })
	return rep, nil
}

// Table renders the accuracy audit.
func (r *AccuracyReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Accuracy audit (eps=%.2f, delta=%.2f; guarantee: within-eps rate >= %.2f)\n",
		r.Eps, r.Delta, 1-r.Delta)
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %12s\n", "scheme", "tuples", "within-eps", "mean relerr", "max relerr")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, "%-8s %8d %11.1f%% %12.4f %12.4f\n",
			s.Scheme, s.Tuples, 100*s.SuccessRate(), s.MeanRelErr, s.MaxRelErr)
	}
	if r.SkippedTuples > 0 {
		fmt.Fprintf(&b, "(%d tuples skipped: exact frequency intractable)\n", r.SkippedTuples)
	}
	return b.String()
}
