package obs

import (
	"context"
	"sync"
	"time"
)

// Span attributes wall time to one named stage of the pipeline. Spans
// nest: child spans started from a parent account for portions of the
// parent's duration, and Stages/Tree aggregate them afterwards.
//
// All methods are nil-safe, so instrumented code can run untraced by
// passing a nil span, and safe for concurrent use: the harness prepares
// synopses over a worker pool, each worker extending its own pair span
// while the parent is still open.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time
	children []*Span
}

// NewSpan starts a root span.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild starts a nested span. On a nil receiver it returns nil, so
// call sites need no tracing-enabled check.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Rename changes the span's stage name. The harness uses it to label a
// synopsis-preparation span with what actually happened ("synopsis.load"
// vs "synopsis.build") once the cache lookup has resolved.
func (s *Span) Rename(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.name = name
	s.mu.Unlock()
}

// End marks the span finished. Calling End twice keeps the first end
// time; Duration before End measures up to now. Ending a parent also
// ends (or clamps) any still-running descendants at the parent's end
// time, so Stages and Tree never attribute time past the parent's end.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return
	}
	s.end = time.Now()
	end, children := s.end, s.snapshotChildrenLocked()
	s.mu.Unlock()
	for _, c := range children {
		c.clampTo(end)
	}
}

// snapshotChildrenLocked copies the child list; the caller holds s.mu.
func (s *Span) snapshotChildrenLocked() []*Span {
	return append([]*Span(nil), s.children...)
}

// snapshotChildren copies the child list under the span's lock.
func (s *Span) snapshotChildren() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotChildrenLocked()
}

// clampTo ends a still-running span at t, pulls back an end time past t,
// and recursively applies the same bound to the subtree. A span that
// started after t gets a zero duration rather than a negative one.
func (s *Span) clampTo(t time.Time) {
	s.mu.Lock()
	if s.end.IsZero() || s.end.After(t) {
		if t.Before(s.start) {
			t = s.start
		}
		s.end = t
	}
	end, children := s.end, s.snapshotChildrenLocked()
	s.mu.Unlock()
	for _, c := range children {
		c.clampTo(end)
	}
}

// Start returns the span's start time (zero on nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// EndTime returns the span's end time, or the zero time while it is
// still running.
func (s *Span) EndTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// Name returns the span's stage name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.name
}

// Duration returns the span's wall time so far (or total, once ended).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Stage is an aggregated view of a span's direct children: all children
// with the same name merge into one stage.
type Stage struct {
	Name  string
	Dur   time.Duration
	Count int
}

// Stages merges the span's direct children by name, in first-start
// order, and appends an "other" stage holding the span's own time not
// covered by any child. Returns nil for a childless or nil span.
func (s *Span) Stages() []Stage {
	if s == nil {
		return nil
	}
	children := s.snapshotChildren()
	if len(children) == 0 {
		return nil
	}
	idx := make(map[string]int)
	var out []Stage
	var covered time.Duration
	for _, c := range children {
		d := c.Duration()
		name := c.Name()
		covered += d
		if i, ok := idx[name]; ok {
			out[i].Dur += d
			out[i].Count++
			continue
		}
		idx[name] = len(out)
		out = append(out, Stage{Name: name, Dur: d, Count: 1})
	}
	if rest := s.Duration() - covered; rest > 0 {
		out = append(out, Stage{Name: "other", Dur: rest, Count: 1})
	}
	return out
}

// Node is the exportable span tree: name, duration in nanoseconds, and
// aggregated children (merged by name, with Count occurrences).
type Node struct {
	Name     string `json:"name"`
	DurNanos int64  `json:"dur_ns"`
	Count    int    `json:"count,omitempty"`
	Children []Node `json:"children,omitempty"`
}

// Tree renders the span as an aggregated tree: at every level, sibling
// spans with the same name merge (durations add, counts accumulate, and
// their children merge recursively).
func (s *Span) Tree() Node {
	if s == nil {
		return Node{}
	}
	n := Node{Name: s.Name(), DurNanos: s.Duration().Nanoseconds(), Count: 1}
	n.Children = mergeChildren(s.snapshotChildren())
	return n
}

func mergeChildren(spans []*Span) []Node {
	if len(spans) == 0 {
		return nil
	}
	idx := make(map[string]int)
	var out []Node
	grouped := make(map[string][]*Span)
	for _, c := range spans {
		name := c.Name()
		if _, ok := idx[name]; !ok {
			idx[name] = len(out)
			out = append(out, Node{Name: name})
		}
		i := idx[name]
		out[i].DurNanos += c.Duration().Nanoseconds()
		out[i].Count++
		grouped[name] = append(grouped[name], c.snapshotChildren()...)
	}
	for i := range out {
		out[i].Children = mergeChildren(grouped[out[i].Name])
	}
	return out
}

// SpanData is an immutable snapshot of a span tree with absolute
// timestamps, the interchange form consumed by exporters (notably
// internal/obs/trace). Unlike Tree, it does not merge siblings: every
// span instance becomes one node, so event timelines stay intact.
type SpanData struct {
	Name     string
	Start    time.Time
	End      time.Time
	Children []SpanData
}

// Duration returns End - Start.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Data snapshots the span tree. Still-running spans are clamped to now,
// and children never extend past their parent's end, mirroring End's
// clamping. Returns the zero SpanData on a nil span.
func (s *Span) Data() SpanData {
	if s == nil {
		return SpanData{}
	}
	return s.data(time.Now())
}

func (s *Span) data(deadline time.Time) SpanData {
	s.mu.Lock()
	end := s.end
	if end.IsZero() || end.After(deadline) {
		end = deadline
	}
	if end.Before(s.start) {
		end = s.start
	}
	d := SpanData{Name: s.name, Start: s.start, End: end}
	children := s.snapshotChildrenLocked()
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.data(end))
	}
	return d
}

type spanCtxKey struct{}

// StartSpan starts a span as a child of the span carried by ctx (or as a
// root span if none) and returns a derived context carrying the new span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	var sp *Span
	if parent != nil {
		sp = parent.StartChild(name)
	} else {
		sp = NewSpan(name)
	}
	return ContextWithSpan(ctx, sp), sp
}

// ContextWithSpan returns a context carrying sp, under which StartSpan
// and the instrumented layers attach their spans. A nil sp leaves ctx,
// and whatever span it already carries, unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}
