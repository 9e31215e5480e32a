package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// A WindowedHistogram records every observation twice: into a cumulative
// Histogram (the series exported under the metric's own name) and into a
// ring of per-interval bucket sets, from which quantiles over the last
// ~1m / ~5m (or any configured windows) can be read at any time. The
// windowed view is what SLOs want — a p99 that reflects the last minute
// of traffic and drains back to zero when the traffic stops — while the
// cumulative series keeps its whole-process meaning.
//
// The ring holds one slot per interval of windows[0]/12 (so the shortest
// window always spans ~12 slots and a quantile is at most ~1/12 of the
// window stale), sized to cover the longest window. A slot is reset
// lazily the first time its interval comes around again, so idle series
// cost nothing. Time comes from the package clock (Now), so tests drive
// slot expiry deterministically through SetNowFunc.

// windowSlotsPerShortest fixes the slot granularity: the shortest window
// is divided into this many ring slots.
const windowSlotsPerShortest = 12

// DefaultWindows are the rolling windows used when a WindowedHistogram
// is created without an explicit set.
func DefaultWindows() []time.Duration {
	return []time.Duration{time.Minute, 5 * time.Minute}
}

// winSlot is one interval's worth of observations. index is the absolute
// interval number (unix nanos / slot duration); a slot whose index does
// not match the interval being written or read is stale and treated as
// empty.
type winSlot struct {
	index int64
	s     HistSnapshot
}

// WindowedHistogram is a cumulative Histogram plus the rolling-window
// ring. It is safe for concurrent use. Create through
// Registry.WindowedHistogram so the cumulative part is registered and
// exported; the windowed quantiles export beside it as
// <name>_window{window,quantile} series.
type WindowedHistogram struct {
	hist *Histogram

	mu      sync.Mutex
	slotDur time.Duration
	windows []time.Duration // ascending, deduplicated
	slots   []winSlot
}

// newWindowedHistogram builds the ring for the given windows (nil or
// empty selects DefaultWindows) over hist. Non-positive windows are
// dropped; if none survive, the defaults are used.
func newWindowedHistogram(hist *Histogram, windows []time.Duration) *WindowedHistogram {
	ws := make([]time.Duration, 0, len(windows))
	for _, w := range windows {
		if w > 0 {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		ws = DefaultWindows()
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	ws = slices.Compact(ws)
	slotDur := ws[0] / windowSlotsPerShortest
	if slotDur < time.Millisecond {
		slotDur = time.Millisecond
	}
	longest := ws[len(ws)-1]
	n := int(longest/slotDur) + 1
	return &WindowedHistogram{
		hist:    hist,
		slotDur: slotDur,
		windows: ws,
		slots:   make([]winSlot, n),
	}
}

// Windows returns the configured rolling windows, ascending.
func (w *WindowedHistogram) Windows() []time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]time.Duration(nil), w.windows...)
}

// slotAt returns the ring slot for absolute interval idx, resetting it
// if it still holds a previous lap's data. Caller holds w.mu.
func (w *WindowedHistogram) slotAt(idx int64) *winSlot {
	n := int64(len(w.slots))
	sl := &w.slots[int(((idx%n)+n)%n)]
	if sl.index != idx {
		*sl = winSlot{index: idx}
	}
	return sl
}

// Observe records one value into the cumulative histogram and the
// current ring slot. NaN observations are dropped.
func (w *WindowedHistogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	w.hist.Observe(v)
	i := bucketIndex(v)
	w.mu.Lock()
	w.slotAt(Now().UnixNano()/int64(w.slotDur)).s.add(i, v)
	w.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (w *WindowedHistogram) ObserveDuration(d time.Duration) { w.Observe(d.Seconds()) }

// WindowSnapshot merges the slots covering the last win of wall time
// (including the partial current interval) into a HistSnapshot, so
// Quantile/Mean/Buckets work exactly as on the cumulative series. An
// idle window yields the zero snapshot: count 0, quantiles 0.
func (w *WindowedHistogram) WindowSnapshot(win time.Duration) HistSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	idx := Now().UnixNano() / int64(w.slotDur)
	n := int64(win / w.slotDur)
	if n < 1 {
		n = 1
	}
	if n > int64(len(w.slots)) {
		n = int64(len(w.slots))
	}
	ringLen := int64(len(w.slots))
	var s HistSnapshot
	for k := idx - n + 1; k <= idx; k++ {
		if sl := &w.slots[int(((k%ringLen)+ringLen)%ringLen)]; sl.index == k {
			s.merge(&sl.s)
		}
	}
	return s
}

// FormatWindow renders a window duration compactly for label values:
// whole hours/minutes/seconds print as "1h"/"5m"/"30s"; anything else
// keeps time.Duration's default rendering ("1m30s").
func FormatWindow(d time.Duration) string {
	switch {
	case d >= time.Hour && d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d >= time.Minute && d < time.Hour && d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	case d >= time.Second && d < time.Minute && d%time.Second == 0:
		return fmt.Sprintf("%ds", d/time.Second)
	}
	return d.String()
}
