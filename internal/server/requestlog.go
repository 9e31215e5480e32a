package server

import (
	"context"
	"sync"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/obs"
)

// Request-scoped observability: every instrumented request leaves a
// RequestRecord — trace ID, status, queue wait, latency, estimator
// stats and the full span tree — in a bounded in-memory ring. The ring
// backs GET /debug/requests (recent/slowest records with their stage
// breakdowns) and GET /debug/requests/{id}/trace (one request's span
// tree as a Perfetto-loadable Chrome trace).

// DefaultRequestLogCap bounds the request ring when Config.RequestLogCap
// is unset.
const DefaultRequestLogCap = 256

// StageMS is one entry of a request's fitted stage breakdown (the span
// tree's direct children merged by name, durations in milliseconds).
type StageMS struct {
	Name  string  `json:"name"`
	DurMS float64 `json:"dur_ms"`
	Count int     `json:"count,omitempty"`
}

// RequestRecord is one completed (or rejected) request as kept in the
// debug ring and returned by /debug/requests.
type RequestRecord struct {
	TraceID  string `json:"trace_id"`
	Endpoint string `json:"endpoint"`
	// Instance is the registered instance the request resolved to (or
	// targeted, for registry mutations); "" before resolution.
	Instance string `json:"instance,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	// Coalesced marks an estimate served by an identical concurrent
	// request's computation (single-flight follower).
	Coalesced   bool      `json:"coalesced,omitempty"`
	Status      int       `json:"status"`
	Start       time.Time `json:"start"`
	QueueWaitMS float64   `json:"queue_wait_ms"`
	LatencyMS   float64   `json:"latency_ms"`
	Samples     int64     `json:"samples,omitempty"`
	GoodRatio   float64   `json:"good_ratio,omitempty"`
	// Reason is the error code of a failed or rejected request
	// (queue_full, deadline, bad_query, ...); "" on success.
	Reason string    `json:"reason,omitempty"`
	Stages []StageMS `json:"stages,omitempty"`
	// Sched exposes the admission scheduler's decision for requests
	// that reached it: whether the request queued, how many waiters
	// were ahead in its instance's FIFO, and the instance's DRR weight
	// and deficit at enqueue time.
	Sched *SchedDecision `json:"sched,omitempty"`

	// trace is the request's full span tree, kept for the per-request
	// Chrome-trace export; not serialized in listings. convergence is the
	// opt-in per-tuple trajectory set, served by
	// /debug/requests/{id}/convergence rather than inlined in listings.
	trace       obs.SpanData
	convergence []cqa.TupleTrajectory
}

// requestLog is a fixed-capacity ring of the most recent records. Safe
// for concurrent use.
type requestLog struct {
	mu   sync.Mutex
	ring []RequestRecord
	next int // ring position of the next add
	size int // filled entries, <= len(ring)
}

func newRequestLog(capacity int) *requestLog {
	if capacity <= 0 {
		capacity = DefaultRequestLogCap
	}
	return &requestLog{ring: make([]RequestRecord, capacity)}
}

func (l *requestLog) add(rec RequestRecord) {
	l.mu.Lock()
	l.ring[l.next] = rec
	l.next = (l.next + 1) % len(l.ring)
	if l.size < len(l.ring) {
		l.size++
	}
	l.mu.Unlock()
}

// recentQuery filters and orders a listing of the ring.
type recentQuery struct {
	n          int           // max records to return; <= 0 selects 20
	minLatency time.Duration // keep records at least this slow
	errorsOnly bool          // keep only non-2xx / rejected records
	bySlowest  bool          // order by latency instead of recency
	instance   string        // keep only records of this instance ("" = all)
}

// recent returns up to q.n matching records, most recent first (or
// slowest first with q.bySlowest).
func (l *requestLog) recent(q recentQuery) []RequestRecord {
	if q.n <= 0 {
		q.n = 20
	}
	l.mu.Lock()
	all := make([]RequestRecord, 0, l.size)
	// Walk backwards from the newest entry so `all` is recency-ordered.
	for i := 0; i < l.size; i++ {
		pos := (l.next - 1 - i + 2*len(l.ring)) % len(l.ring)
		rec := l.ring[pos]
		if rec.LatencyMS < float64(q.minLatency.Microseconds())/1e3 {
			continue
		}
		if q.errorsOnly && rec.Status < 400 && rec.Reason == "" {
			continue
		}
		if q.instance != "" && rec.Instance != q.instance {
			continue
		}
		all = append(all, rec)
	}
	l.mu.Unlock()
	if q.bySlowest {
		// Stable insertion keeps recency order among equal latencies; the
		// ring is small so O(n²) worst case is irrelevant.
		for i := 1; i < len(all); i++ {
			for j := i; j > 0 && all[j].LatencyMS > all[j-1].LatencyMS; j-- {
				all[j], all[j-1] = all[j-1], all[j]
			}
		}
	}
	if len(all) > q.n {
		all = all[:q.n]
	}
	return all
}

// find returns the most recent record with the given trace ID.
func (l *requestLog) find(traceID string) (RequestRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 0; i < l.size; i++ {
		pos := (l.next - 1 - i + 2*len(l.ring)) % len(l.ring)
		if l.ring[pos].TraceID == traceID {
			return l.ring[pos], true
		}
	}
	return RequestRecord{}, false
}

// reqState is the per-request mutable record shared between the
// instrument wrapper (which creates and finalizes it) and the handlers
// and admission path (which write scheme, queue wait, stats and error
// reasons into rec). A request is handled by one goroutine at a time, so
// no lock.
type reqState struct {
	rec  RequestRecord
	span *obs.Span // root server.<endpoint> span
	// dropSeries: the request deleted its instance, so the instance's
	// metric series go once the request itself is recorded.
	dropSeries bool
}

type reqStateKey struct{}

// reqStateFrom returns the request's state. Every handler that reads it
// runs under instrument, which installs it, and the admission path's
// context derives from the request's.
func reqStateFrom(ctx context.Context) *reqState {
	return ctx.Value(reqStateKey{}).(*reqState)
}

// setReason records an error/rejection code; the first code wins (the
// earliest failure is the root cause).
func (st *reqState) setReason(code string) {
	if st.rec.Reason == "" {
		st.rec.Reason = code
	}
}

// SchedDecision is the admission scheduler's per-request decision as
// surfaced by /debug/requests.
type SchedDecision struct {
	// Queued reports whether the request waited in its instance FIFO
	// (false = granted a slot immediately).
	Queued bool `json:"queued"`
	// QueuedAhead counts the waiters ahead in the instance queue at
	// enqueue time (0 when not queued).
	QueuedAhead int `json:"queued_ahead,omitempty"`
	// Weight and Deficit snapshot the instance's DRR state at
	// admission.
	Weight  int64 `json:"weight"`
	Deficit int64 `json:"deficit,omitempty"`
}

// ms converts a duration to milliseconds with microsecond resolution,
// matching the service's other *_ms fields.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// stagesMS converts a span stage breakdown to the wire form.
func stagesMS(stages []obs.Stage) []StageMS {
	if len(stages) == 0 {
		return nil
	}
	out := make([]StageMS, len(stages))
	for i, s := range stages {
		out[i] = StageMS{Name: s.Name, DurMS: ms(s.Dur), Count: s.Count}
	}
	return out
}
