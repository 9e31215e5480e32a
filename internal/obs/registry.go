package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics; this is
// not enforced, but exporters assume it).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value (0 before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one registered time series.
type entry struct {
	name    string
	labels  []Label // sorted by key
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// win, when set, wraps hist with a rolling-window ring; the exporters
	// then emit <name>_window quantile series beside the cumulative ones.
	// Atomic because it is attached lazily while exports may be reading.
	win atomic.Pointer[WindowedHistogram]
}

// labelString renders the sorted label set as {k="v",...}, or "" when
// unlabeled.
func labelString(labels []Label) string {
	return string(appendLabels(nil, labels))
}

// appendLabels appends labelString(labels) to b.
func appendLabels(b []byte, labels []Label) []byte {
	if len(labels) == 0 {
		return b
	}
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	return append(b, '}')
}

// Registry holds a set of named metrics. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// get returns the entry for (name, labels), creating it with the given
// kind on first use. Asking for an existing name+labels with a different
// kind panics: it is a programming error that would silently corrupt the
// export otherwise.
//
// The hot path, a series that exists, allocates nothing: up to eight
// labels are sorted and the key is rendered in stack buffers.
func (r *Registry) get(name string, kind metricKind, labels []Label) *entry {
	var lb [8]Label
	sorted := append(lb[:0], labels...)
	for i := 1; i < len(sorted); i++ { // insertion sort by key
		for j := i; j > 0 && sorted[j].Key < sorted[j-1].Key; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var kb [128]byte
	key := appendLabels(append(kb[:0], name...), sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[string(key)]
	if !ok {
		e = &entry{name: name, labels: append([]Label(nil), sorted...), kind: kind}
		switch kind {
		case counterKind:
			e.counter = &Counter{}
		case gaugeKind:
			e.gauge = &Gauge{}
		case histogramKind:
			e.hist = newHistogram()
		}
		r.entries[string(key)] = e
	}
	if e.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", string(key), e.kind, kind))
	}
	return e
}

// Counter returns (registering if needed) the counter for name+labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.get(name, counterKind, labels).counter
}

// Gauge returns (registering if needed) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.get(name, gaugeKind, labels).gauge
}

// Histogram returns (registering if needed) the histogram for name+labels.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.get(name, histogramKind, labels).hist
}

// WindowedHistogram returns (registering if needed) the rolling-window
// view of the histogram for name+labels. The first call fixes the
// window set (nil selects DefaultWindows); later calls return the
// existing view regardless of their windows argument. Observations made
// through the returned handle feed both the cumulative series and the
// per-window quantiles; observations made through Histogram() on the
// same name feed only the cumulative series.
func (r *Registry) WindowedHistogram(name string, windows []time.Duration, labels ...Label) *WindowedHistogram {
	e := r.get(name, histogramKind, labels)
	if wh := e.win.Load(); wh != nil {
		return wh
	}
	wh := newWindowedHistogram(e.hist, windows)
	if e.win.CompareAndSwap(nil, wh) {
		return wh
	}
	return e.win.Load()
}

// RemoveLabeled drops every series carrying label l, key and value both.
// A handle obtained earlier keeps working but is no longer exported; the
// next lookup of the same name and labels registers a fresh series at
// zero.
func (r *Registry) RemoveLabeled(l Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for key, e := range r.entries {
		for _, el := range e.labels {
			if el == l {
				delete(r.entries, key)
				break
			}
		}
	}
}

// Reset drops every registered metric. Meant for tests and for CLI runs
// that want a clean slate.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = make(map[string]*entry)
}

// snapshot returns the entries sorted by (name, labels) for deterministic
// export.
func (r *Registry) snapshot() []*entry {
	r.mu.Lock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return labelString(out[i].labels) < labelString(out[j].labels)
	})
	return out
}
