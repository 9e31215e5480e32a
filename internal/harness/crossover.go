package harness

import (
	"fmt"
	"strings"
	"time"

	"cqabench/internal/cqa"
)

// Crossover locates where scheme b overtakes scheme a along the figure's
// x-axis: the first level at which b's mean runtime drops below a's after
// a level where a was at least as fast. The paper's analysis hinges on
// such crossovers (e.g. where Natural stops winning as balance grows);
// this makes them a first-class measurement.
//
// Returns the level and true when a crossover exists; false when one
// scheme dominates throughout or the figure lacks both schemes.
func (f *Figure) Crossover(a, b cqa.Scheme) (float64, bool) {
	pa := f.seriesPoints(a)
	pb := f.seriesPoints(b)
	if pa == nil || pb == nil {
		return 0, false
	}
	// Align on shared levels (both series are sorted by level).
	type pairPoint struct {
		level  float64
		ma, mb time.Duration
	}
	var pts []pairPoint
	for _, x := range pa {
		for _, y := range pb {
			if x.Level == y.Level {
				pts = append(pts, pairPoint{x.Level, x.Mean, y.Mean})
			}
		}
	}
	if len(pts) < 2 {
		return 0, false
	}
	seenALead := false
	for _, p := range pts {
		if p.ma <= p.mb {
			seenALead = true
			continue
		}
		if seenALead {
			return p.level, true
		}
	}
	return 0, false
}

func (f *Figure) seriesPoints(s cqa.Scheme) []Point {
	for _, ser := range f.Series {
		if ser.Scheme == s {
			return ser.Points
		}
	}
	return nil
}

// CrossoverSummary reports, for every ordered scheme pair, where the
// second overtakes the first — the textual companion to the figures.
func (f *Figure) CrossoverSummary() string {
	var b strings.Builder
	found := false
	for _, a := range cqa.Schemes {
		for _, c := range cqa.Schemes {
			if a == c {
				continue
			}
			if lv, ok := f.Crossover(a, c); ok {
				fmt.Fprintf(&b, "%v overtakes %v at %s %.4g\n", c, a, f.XLabel, lv)
				found = true
			}
		}
	}
	if !found {
		return "no crossovers: one ordering holds at every level\n"
	}
	return b.String()
}
