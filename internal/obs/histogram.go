package obs

import (
	"math"
	"sort"
	"sync"
)

// The histogram covers (1e-9, 1e12] with logarithmic buckets, 20 per
// decade (adjacent bounds differ by a factor of 10^(1/20) ≈ 1.122, so a
// quantile read from a bucket midpoint is within ~6% of the true value).
// Values ≤ 1e-9 land in the underflow bucket, values > 1e12 in the
// overflow bucket. Observed in seconds this spans sub-nanosecond to
// ~31,000 years; observed as sizes it spans 1 to 10^12.
const (
	histMinExp           = -9
	histMaxExp           = 12
	histBucketsPerDecade = 20
	histNumBounds        = (histMaxExp - histMinExp) * histBucketsPerDecade
)

var histBounds = func() [histNumBounds]float64 {
	var b [histNumBounds]float64
	for i := range b {
		b[i] = math.Pow(10, float64(histMinExp)+float64(i+1)/histBucketsPerDecade)
	}
	return b
}()

// bucketIndex returns the bucket of v: 0 holds v ≤ bounds[0] (including
// the underflow range), len(bounds) is the overflow bucket. Zero and
// negative observations have no log-scale bucket of their own; they are
// clamped into the underflow bucket explicitly, so durations that round
// to zero (or subtraction artifacts that go slightly negative) can never
// produce a bogus bucket index.
func bucketIndex(v float64) int {
	if v <= histBounds[0] { // includes all v ≤ 0 and -Inf
		return 0
	}
	return sort.SearchFloat64s(histBounds[:], v)
}

// Histogram accumulates observations into fixed log-scale buckets and
// tracks count, sum, min and max. It is safe for concurrent use.
type Histogram struct {
	mu sync.Mutex
	s  HistSnapshot
}

func newHistogram() *Histogram { return &Histogram{} }

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := bucketIndex(v)
	h.mu.Lock()
	h.s.add(i, v)
	h.mu.Unlock()
}

// HistSnapshot is a consistent copy of a histogram's state. It is also
// the accumulator behind a Histogram and each slot of a window ring.
type HistSnapshot struct {
	Count  uint64
	Sum    float64
	Min    float64
	Max    float64
	counts [histNumBounds + 1]uint64
}

// add records v, which is not NaN, in bucket i.
func (s *HistSnapshot) add(i int, v float64) {
	s.counts[i]++
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if s.Count == 0 || v > s.Max {
		s.Max = v
	}
	s.Count++
	s.Sum += v
}

// merge adds o's observations to s.
func (s *HistSnapshot) merge(o *HistSnapshot) {
	if o.Count == 0 {
		return
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if s.Count == 0 || o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Snapshot returns a consistent copy for reading quantiles and buckets.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s
}

// Mean returns Sum/Count (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]) from the
// bucket counts: the geometric midpoint of the bucket holding the rank,
// clamped to the observed [Min, Max]. Returns 0 when empty.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum < rank {
			continue
		}
		var v float64
		switch {
		case i == 0:
			// The underflow bucket has no lower bound; the observed minimum
			// is the best estimate available.
			v = s.Min
		case i == histNumBounds:
			v = s.Max
		default:
			v = math.Sqrt(histBounds[i-1] * histBounds[i])
		}
		// The true rank value lies in the bucket's range intersected with
		// the observed range; clamping never hurts and fixes the extremes.
		return math.Min(math.Max(v, s.Min), s.Max)
	}
	return s.Max
}

// Bucket is one non-empty cumulative bucket of a histogram in export
// form: the count of observations ≤ UpperBound.
type Bucket struct {
	UpperBound float64 // +Inf for the overflow bucket
	Count      uint64  // cumulative
}

// Buckets returns the non-empty buckets in cumulative (Prometheus) form,
// always ending with the +Inf bucket when the histogram is non-empty.
func (s HistSnapshot) Buckets() []Bucket {
	if s.Count == 0 {
		return nil
	}
	var out []Bucket
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if c == 0 {
			continue
		}
		ub := math.Inf(1)
		if i < histNumBounds {
			ub = histBounds[i]
		}
		out = append(out, Bucket{UpperBound: ub, Count: cum})
	}
	if out[len(out)-1].UpperBound != math.Inf(1) {
		out = append(out, Bucket{UpperBound: math.Inf(1), Count: cum})
	}
	return out
}
