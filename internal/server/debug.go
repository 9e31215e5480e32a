package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/obs"
	"cqabench/internal/obs/manifest"
	"cqabench/internal/obs/trace"
)

// The live request inspector: /version reports what exactly is running,
// /debug/requests lists the recent (or slowest) requests with their
// fitted stage breakdowns, and /debug/requests/{id}/trace exports one
// request's span tree in the same Chrome Trace Event JSON that
// `cqabench figure -trace-out` writes, so Perfetto loads both identically.

// DebugRequestsResponse is the body of GET /debug/requests.
type DebugRequestsResponse struct {
	Count    int             `json:"count"`
	Requests []RequestRecord `json:"requests"`
}

// handleVersion serves the run manifest: git sha (with dirty flag), Go
// toolchain, host, pid, start time and the full serve configuration.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.manifest)
}

// handleMetricsJSON serves the registry's JSON export wrapped in the
// same {"manifest": ..., "metrics": ...} provenance envelope that
// `cqabench figure -metrics-out` writes.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	s.refreshUptime()
	var buf bytes.Buffer
	if err := s.reg.WriteJSON(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Manifest *manifest.RunManifest `json:"manifest,omitempty"`
		Metrics  json.RawMessage       `json:"metrics"`
	}{Manifest: s.manifest, Metrics: buf.Bytes()})
}

// handleDebugRequests lists recent request records. Query parameters:
//
//	n         max records (default 20, capped at the ring size)
//	min_ms    keep only requests at least this slow (float, milliseconds)
//	errors    "true"/"1": keep only failed or rejected requests
//	sort      "recent" (default) or "slow" (slowest first)
//	instance  keep only requests that resolved to this instance
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var query recentQuery
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "n must be a positive integer")
			return
		}
		query.n = n
	}
	if v := q.Get("min_ms"); v != "" {
		minMS, err := strconv.ParseFloat(v, 64)
		if err != nil || minMS < 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "min_ms must be a non-negative number")
			return
		}
		query.minLatency = time.Duration(minMS * float64(time.Millisecond))
	}
	switch q.Get("errors") {
	case "", "false", "0":
	case "true", "1":
		query.errorsOnly = true
	default:
		writeError(w, http.StatusBadRequest, "bad_request", "errors must be true or false")
		return
	}
	switch q.Get("sort") {
	case "", "recent":
	case "slow":
		query.bySlowest = true
	default:
		writeError(w, http.StatusBadRequest, "bad_request", `sort must be "recent" or "slow"`)
		return
	}
	query.instance = q.Get("instance")
	recs := s.reqlog.recent(query)
	if recs == nil {
		recs = []RequestRecord{} // an empty ring is [] on the wire, not null
	}
	writeJSON(w, http.StatusOK, DebugRequestsResponse{Count: len(recs), Requests: recs})
}

// handleDebugRequestTrace exports one recorded request's span tree as
// Chrome Trace Event Format JSON, loadable in Perfetto. The format and
// metadata layout match `cqabench figure -trace-out` (internal/obs/trace).
func (s *Server) handleDebugRequestTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.reqlog.find(id)
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound,
			"no recorded request with trace id "+strconv.Quote(id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = trace.WriteChrome(w, s.manifest, []obs.SpanData{rec.trace})
}

// ConvergenceResponse is the body of GET /debug/requests/{id}/convergence.
type ConvergenceResponse struct {
	TraceID     string                `json:"trace_id"`
	Scheme      string                `json:"scheme,omitempty"`
	Convergence []cqa.TupleTrajectory `json:"convergence"`
}

// handleDebugRequestConvergence serves the per-tuple trajectories a
// request recorded. Requests without `"convergence": true` leave no
// trajectory, which is a distinct 404 from an unknown trace ID.
func (s *Server) handleDebugRequestConvergence(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.reqlog.find(id)
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound,
			"no recorded request with trace id "+strconv.Quote(id))
		return
	}
	if rec.convergence == nil {
		writeError(w, http.StatusNotFound, codeNoConvergence,
			`request `+strconv.Quote(id)+` did not record convergence (set "convergence": true on /v1/estimate)`)
		return
	}
	writeJSON(w, http.StatusOK, ConvergenceResponse{
		TraceID:     rec.TraceID,
		Scheme:      rec.Scheme,
		Convergence: rec.convergence,
	})
}
