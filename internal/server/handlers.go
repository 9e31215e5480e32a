package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"cqabench/internal/cq"
	"cqabench/internal/cqa"
	"cqabench/internal/cqaerr"
	"cqabench/internal/estimator"
	"cqabench/internal/obs"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
)

// EstimateRequest is the body of POST /v1/estimate.
type EstimateRequest struct {
	// Instance names the registered instance to estimate against. May be
	// omitted only when the choice is unambiguous: exactly one instance
	// is registered, or one is named "default".
	Instance string `json:"instance,omitempty"`
	// Query is the conjunctive query, in the library's text syntax.
	Query string `json:"query"`
	// Scheme names the approximation scheme (Natural, KL, KLM, Cover);
	// "" or "auto" selects it from the synopsis per the paper's
	// recommendation.
	Scheme string `json:"scheme,omitempty"`
	// Eps and Delta override the paper's defaults (0.1 / 0.25) when
	// non-zero; both must lie in (0, 1).
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	// Seed overrides the reference MT19937-64 seed when non-zero, making
	// repeat requests deterministic per seed.
	Seed uint64 `json:"seed,omitempty"`
	// MaxSamples bounds the per-tuple sample count (0 = unbounded).
	MaxSamples int64 `json:"max_samples,omitempty"`
	// SamplingWorkers selects the intra-query sampling mode for this
	// request: 0 defers to the server's -sampling-workers default, 1
	// forces the sequential single-stream mode, n ≥ 2 fans each tuple's
	// draws over an n-worker substream pool, and -1 sizes that pool
	// automatically. Parallel-mode results are deterministic per seed
	// and identical for every pool size. Other negatives are a 400.
	SamplingWorkers int `json:"sampling_workers,omitempty"`
	// TimeoutMS bounds this request's wall time; 0 selects the server's
	// default, larger values are capped at its maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Convergence opts this request into trajectory recording: the
	// response (and the request's debug record) carries per-tuple
	// convergence trajectories for the first few answer tuples.
	Convergence bool `json:"convergence,omitempty"`
	// ConvergencePoints bounds each tuple's trajectory length; 0 selects
	// the estimator default, values above the service cap are clamped.
	ConvergencePoints int `json:"convergence_points,omitempty"`
}

// maxConvergencePoints caps each trajectory of opt-in convergence
// recording: trajectories ride in JSON responses and the debug ring, so
// their size is bounded here rather than by whatever the client asks
// for. cqa.ConvergenceTuples bounds how many tuples record one.
const maxConvergencePoints = 512

// Answer is one graded answer tuple.
type Answer struct {
	Tuple []string `json:"tuple"`
	Freq  float64  `json:"freq"`
}

// EstimateStats summarizes the work a request performed.
type EstimateStats struct {
	TraceID   string  `json:"trace_id"`
	Samples   int64   `json:"samples"`
	NumTuples int     `json:"num_tuples"`
	GoodRatio float64 `json:"good_ratio"`
	// SamplingWorkers is the effective intra-query pool size the run
	// used (1 = sequential mode); Chunks counts the substream chunks the
	// parallel path consumed (0 in sequential mode).
	SamplingWorkers int     `json:"sampling_workers"`
	Chunks          int64   `json:"chunks,omitempty"`
	QueueWaitMS     float64 `json:"queue_wait_ms"`
	PrepMS          float64 `json:"prep_ms"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// EstimateResponse is the body of a successful POST /v1/estimate.
type EstimateResponse struct {
	Instance string        `json:"instance"`
	Scheme   string        `json:"scheme"`
	Answers  []Answer      `json:"answers"`
	Stats    EstimateStats `json:"stats"`
	Synopsis string        `json:"synopsis"` // "lru", "load" or "build"
	// Coalesced marks a response served by an identical concurrent
	// request's computation (single-flight); absent on leader responses.
	Coalesced bool `json:"coalesced,omitempty"`
	// Convergence holds per-tuple estimate trajectories when the request
	// set "convergence": true; absent otherwise.
	Convergence []cqa.TupleTrajectory `json:"convergence,omitempty"`
}

// SynopsisRequest is the body of POST /v1/synopsis.
type SynopsisRequest struct {
	// Instance names the registered instance; same resolution rules as
	// EstimateRequest.Instance.
	Instance  string `json:"instance,omitempty"`
	Query     string `json:"query"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// SynopsisResponse summarizes a built synopsis set.
type SynopsisResponse struct {
	Instance        string  `json:"instance"`
	Answers         int     `json:"answers"`
	Balance         float64 `json:"balance"`
	IndicatedScheme string  `json:"indicated_scheme"`
	Source          string  `json:"source"` // "lru", "load" or "build"
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// InstanceSummary is one entry of GET /v1/instances (and the body of a
// successful POST /v1/instances).
type InstanceSummary struct {
	Name    string    `json:"name"`
	Source  string    `json:"source"`
	Created time.Time `json:"created"`
	// Facts is the instance's database size in facts.
	Facts int `json:"facts"`
	// ResidentSynopses / ResidentBytes report this instance's share of
	// the synopsis memory budget right now.
	ResidentSynopses int   `json:"resident_synopses"`
	ResidentBytes    int64 `json:"resident_bytes"`
	// Estimates counts completed estimator runs against this instance
	// (coalesced followers not included).
	Estimates int64 `json:"estimates"`
	// Spec echoes the build provenance for spec-built instances.
	Spec *scenario.InstanceSpec `json:"spec,omitempty"`
	// Weight is the instance's DRR scheduling weight; Quota its
	// admission limits (absent = unlimited); Generation the policy
	// version for PATCH if_generation optimistic concurrency.
	Weight     int64               `json:"weight"`
	Quota      *scenario.QuotaSpec `json:"quota,omitempty"`
	Generation int64               `json:"generation"`
}

// InstancePatch is the body of PATCH /v1/instances/{name}: present
// fields are updated, absent fields untouched. Quota replaces the
// whole quota block ({} clears it to unlimited).
type InstancePatch struct {
	Weight *int                `json:"weight,omitempty"`
	Quota  *scenario.QuotaSpec `json:"quota,omitempty"`
	// IfGeneration, when set, makes the update conditional on the
	// instance's current policy generation — a mismatch is a 409
	// (conflict), the read-modify-write guard for concurrent tuners.
	IfGeneration *int64 `json:"if_generation,omitempty"`
}

// validate rejects an empty patch, an out-of-range weight and a quota
// that cannot shape a bucket.
func (p *InstancePatch) validate() error {
	if p.Weight == nil && p.Quota == nil {
		return errors.New("empty patch: set weight and/or quota")
	}
	if p.Weight != nil {
		if err := scenario.ValidateWeight(*p.Weight); err != nil {
			return err
		}
	}
	if p.Quota != nil {
		return p.Quota.Validate()
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// parseQuery parses and schema-validates a request's query text.
func parseQuery(text string, db *relation.Database) (*cq.Query, error) {
	q, err := cq.Parse(text, db.Dict)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(db.Schema); err != nil {
		return nil, err
	}
	return q, nil
}

// routes assembles the service mux. Go 1.22 method patterns give 405 for
// wrong methods for free.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", s.instrument("/v1/estimate", s.handleEstimate))
	mux.HandleFunc("POST /v1/synopsis", s.instrument("/v1/synopsis", s.handleSynopsis))
	mux.HandleFunc("GET /v1/instances", s.instrument("/v1/instances", s.handleInstancesList))
	mux.HandleFunc("POST /v1/instances", s.instrument("/v1/instances", s.handleInstanceRegister))
	mux.HandleFunc("PATCH /v1/instances/{name}", s.instrument("/v1/instances/{name}", s.handleInstancePatch))
	mux.HandleFunc("DELETE /v1/instances/{name}", s.instrument("/v1/instances/{name}", s.handleInstanceDelete))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /version", s.handleVersion)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /debug/requests/{id}/trace", s.handleDebugRequestTrace)
	mux.HandleFunc("GET /debug/requests/{id}/convergence", s.handleDebugRequestConvergence)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.refreshUptime()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusRecorder captures the response code for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the full request-scoped observability
// substrate: a trace ID (generated, or accepted from a well-formed
// inbound X-Request-ID) echoed as X-Trace-ID and kept on the request's
// state, a root span the admission path and handlers hang children off
// (queue.wait, synopsis, estimate), the request counter and windowed
// latency histogram — both labeled by the instance the request resolved
// to ("none" before resolution) — one structured access-log line, and a
// RequestRecord in the /debug/requests ring.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if !obs.IsValidTraceID(id) {
			id = obs.NewTraceID()
		}
		st := &reqState{rec: RequestRecord{TraceID: id, Endpoint: endpoint, Start: start}}
		ctx := context.WithValue(r.Context(), reqStateKey{}, st)
		ctx, span := obs.StartSpan(ctx, "server."+endpoint)
		st.span = span
		w.Header().Set("X-Trace-ID", id)

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r.WithContext(ctx))
		span.End()
		elapsed := time.Since(start)

		st.rec.Status = rec.status
		st.rec.LatencyMS = ms(elapsed)
		st.rec.Stages = stagesMS(span.Stages())
		st.rec.trace = span.Data()
		s.reqlog.add(st.rec)

		instance := st.rec.Instance
		if instance == "" {
			instance = noInstance
		}
		code := fmt.Sprintf("%d", rec.status)
		s.reg.Counter("server_requests_total",
			obs.L("endpoint", endpoint), obs.L("instance", instance), obs.L("code", code)).Inc()
		s.requestSeconds(endpoint, instance).ObserveDuration(elapsed)
		if st.dropSeries {
			s.reg.RemoveLabeled(obs.L("instance", instance))
		}
		s.log.Info("server: request",
			"trace_id", id,
			"endpoint", endpoint,
			"instance", instance,
			"scheme", st.rec.Scheme,
			"code", rec.status,
			"coalesced", st.rec.Coalesced,
			"queue_wait_ms", st.rec.QueueWaitMS,
			"elapsed", elapsed,
			"samples", st.rec.Samples,
			"good_ratio", st.rec.GoodRatio,
			"reason", st.rec.Reason)
	}
}

// decode reads and strictly parses a JSON body, bounding its size.
// A true result means v is populated; otherwise the response is written.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	err := decodeStrict(r.Body, v)
	if err == nil {
		return true
	}
	st := reqStateFrom(r.Context())
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.reject(w, st, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return false
	}
	fail(w, st, http.StatusBadRequest, codeBadRequest, "invalid JSON body: "+err.Error())
	return false
}

// decodeStrict parses one JSON value from r into v: unknown fields are
// refused, and so is anything after the value but whitespace. An
// *http.MaxBytesError from r is returned as is, so decode answers 413.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	err := dec.Decode(&struct{}{})
	if err == io.EOF {
		return nil
	}
	if errors.As(err, new(*http.MaxBytesError)) {
		return err
	}
	return errors.New("data after the JSON value")
}

// resolveInstance maps a request's instance name to the registered
// Instance, writing the 404/400 error response itself on failure.
func (s *Server) resolveInstance(w http.ResponseWriter, st *reqState, name string) (*Instance, bool) {
	in, err := s.instances.lookup(name)
	if err != nil {
		if errors.Is(err, ErrUnknownInstance) {
			failUnknownInstance(w, st, name, err)
		} else {
			fail(w, st, http.StatusBadRequest, codeMissingInst, err.Error())
		}
		return nil, false
	}
	st.rec.Instance = in.Name
	return in, true
}

// failUnknownInstance writes the 404 for a name no instance holds. The
// name rides in the envelope but not on the request record: metric
// labels stay bounded by real instances.
func failUnknownInstance(w http.ResponseWriter, st *reqState, name string, err error) {
	st.setReason(codeUnknownInst)
	writeAPIError(w, http.StatusNotFound, APIError{
		Code: codeUnknownInst, Message: err.Error(), Instance: name,
	})
}

// options assembles cqa.Options from a request, validating up front so
// malformed eps/delta are a 400 before any admission or sampling work.
// defaultSamplingWorkers is the server's -sampling-workers setting,
// applied when the request leaves sampling_workers at 0.
func (req *EstimateRequest) options(defaultSamplingWorkers int) (cqa.Options, error) {
	opts := cqa.DefaultOptions()
	if req.Eps != 0 {
		opts.Eps = req.Eps
	}
	if req.Delta != 0 {
		opts.Delta = req.Delta
	}
	if req.Seed != 0 {
		opts.Seed = req.Seed
	}
	opts.Budget.MaxSamples = req.MaxSamples
	opts.SamplingWorkers = defaultSamplingWorkers
	if req.SamplingWorkers != 0 {
		opts.SamplingWorkers = req.SamplingWorkers
	}
	if req.Convergence {
		pts := req.ConvergencePoints
		if pts > maxConvergencePoints {
			pts = maxConvergencePoints
		}
		opts.Convergence = cqa.ConvergenceOptions{Enabled: true, MaxPoints: pts}
	}
	if err := opts.Validate(); err != nil {
		return cqa.Options{}, err
	}
	return opts, nil
}

// optionsFingerprint canonicalizes the resolved options (plus the
// requested timeout) into the single-flight key component: two requests
// coalesce only when every estimation-relevant knob agrees.
func optionsFingerprint(opts cqa.Options, timeoutMS int64) string {
	// The sampling mode changes the draw schedule (and so the results),
	// so it is part of the key — but canonicalized through SamplingPool:
	// settings that resolve identically (0 and 1 are both sequential)
	// coalesce, while sequential and parallel runs never do. The pool
	// size is included even though parallel results are worker-invariant,
	// so a response's sampling_workers stat always matches its request.
	spw, spar := cqa.SamplingPool(opts.SamplingWorkers)
	return fmt.Sprintf("eps=%g:delta=%g:seed=%d:max=%d:conv=%t:pts=%d:timeout=%d:spw=%d:spar=%t",
		opts.Eps, opts.Delta, opts.Seed, opts.Budget.MaxSamples,
		opts.Convergence.Enabled, opts.Convergence.MaxPoints, timeoutMS, spw, spar)
}

// writeRunError maps an estimation/build failure onto a status code and
// records the code on the request's debug record.
func writeRunError(w http.ResponseWriter, st *reqState, err error) {
	status, code := http.StatusInternalServerError, codeInternal
	switch {
	case errors.Is(err, cqaerr.ErrInvalidOptions):
		status, code = http.StatusBadRequest, codeInvalidOpts
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusGatewayTimeout, codeDeadline
	case errors.Is(err, cqaerr.ErrCanceled), errors.Is(err, context.Canceled):
		// The client went away; the status is moot but 499-style closure
		// needs a code, and 504 is the closest standard one.
		status, code = http.StatusGatewayTimeout, codeCanceled
	case errors.Is(err, estimator.ErrBudget):
		status, code = http.StatusUnprocessableEntity, codeBudgetExhausted
	}
	fail(w, st, status, code, err.Error())
}

// writeSynopsisError maps a failed synopsis build: a cancellation or an
// expired deadline as writeRunError does, anything else as a bad query.
func writeSynopsisError(w http.ResponseWriter, st *reqState, err error) {
	if errors.Is(err, cqaerr.ErrCanceled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		writeRunError(w, st, err)
		return
	}
	fail(w, st, http.StatusBadRequest, codeBadQuery, err.Error())
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	st := reqStateFrom(r.Context())
	var req EstimateRequest
	if !s.decode(w, r, &req) {
		return
	}
	in, ok := s.resolveInstance(w, st, req.Instance)
	if !ok {
		return
	}
	opts, err := req.options(s.cfg.SamplingWorkers)
	if err != nil {
		fail(w, st, http.StatusBadRequest, codeInvalidOpts, err.Error())
		return
	}
	var scheme cqa.Scheme
	auto := req.Scheme == "" || req.Scheme == "auto"
	if !auto {
		if scheme, err = cqa.ParseScheme(req.Scheme); err != nil {
			fail(w, st, http.StatusBadRequest, codeBadScheme, err.Error())
			return
		}
		st.rec.Scheme = scheme.String()
	}
	q, err := parseQuery(req.Query, in.db)
	if err != nil {
		fail(w, st, http.StatusBadRequest, codeBadQuery, err.Error())
		return
	}
	rendered := q.Render(in.db.Dict)

	// Quota gate, after validation (malformed requests don't burn
	// tokens) and before coalescing: every caller — leader or follower
	// — pays its own request token, and below, its own work charge, so
	// single-flight cannot be used to ride another tenant's admission.
	if d := s.sched.admitRequest(in.Name); d != nil {
		s.rejectQuota(w, st, in.Name, d)
		return
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	// Coalesce identical in-flight computations: estimation is
	// deterministic per (instance, query, scheme, options), so concurrent
	// identical requests share one worker slot and one PRNG stream. The
	// scheme key is the *requested* scheme — "auto" coalesces with "auto"
	// (resolution happens once, in the leader) but never with an explicit
	// scheme, even one auto would resolve to.
	schemeKey := "auto"
	if !auto {
		schemeKey = scheme.String()
	}
	key := flightKey{
		instance: in.Name,
		query:    rendered,
		scheme:   schemeKey,
		options:  optionsFingerprint(opts, req.TimeoutMS),
	}
	res, shared := s.flights.do(ctx, key, func() *flightResult {
		return s.runEstimate(ctx, in, q, rendered, auto, scheme, opts)
	})
	if shared {
		s.reg.Counter("estimate_coalesced_total", obs.L("instance", in.Name)).Inc()
		st.rec.Coalesced = true
	}
	// Post-charge the sampling work against THIS caller's instance
	// quota — leader and every coalesced follower alike. The flight key
	// pins the instance, so all callers charge the same tenant; what
	// matters is that N coalesced requests debit N times the cost, not
	// once, or a herd could launder unlimited work through one leader.
	if res.stats.Elapsed > 0 {
		s.sched.chargeWork(in.Name, workSeconds(res.stats.Elapsed, res.stats.SamplingWorkers))
	}
	if res.err != nil {
		switch res.stage {
		case flightStageAdmit:
			s.writeAdmitError(w, st, res.err)
		case flightStageSynopsis:
			writeSynopsisError(w, st, res.err)
		default:
			writeRunError(w, st, res.err)
		}
		return
	}
	st.rec.Scheme = res.scheme.String()
	st.rec.Samples, st.rec.GoodRatio = res.stats.Samples, res.stats.GoodRatio
	st.rec.convergence = res.stats.Convergence
	writeJSON(w, http.StatusOK, EstimateResponse{
		Instance:    in.Name,
		Scheme:      res.scheme.String(),
		Answers:     renderAnswers(in.db, res.answers),
		Synopsis:    res.source,
		Coalesced:   shared,
		Convergence: res.stats.Convergence,
		Stats: EstimateStats{
			TraceID:         st.rec.TraceID,
			Samples:         res.stats.Samples,
			NumTuples:       res.stats.NumTuples,
			GoodRatio:       res.stats.GoodRatio,
			SamplingWorkers: res.stats.SamplingWorkers,
			Chunks:          res.stats.Chunks,
			QueueWaitMS:     st.rec.QueueWaitMS,
			PrepMS:          ms(res.prep),
			ElapsedMS:       ms(res.stats.Elapsed),
		},
	})
}

// runEstimate is the single-flight leader body: admission, synopsis
// residency, scheme resolution and the estimator run, all under the
// leader's context. Every outcome — including an admission rejection,
// which each coalesced caller would have hit identically — is returned
// as a flightResult for the group to fan out.
func (s *Server) runEstimate(ctx context.Context, in *Instance, q *cq.Query, rendered string, auto bool, scheme cqa.Scheme, opts cqa.Options) *flightResult {
	release, err := s.acquire(ctx, in.Name)
	if err != nil {
		return &flightResult{stage: flightStageAdmit, err: err}
	}
	defer release()
	if s.onEstimateStart != nil {
		s.onEstimateStart()
	}

	_, prepSpan := obs.StartSpan(ctx, "synopsis")
	prepStart := time.Now()
	set, source, err := s.synopsisFor(ctx, in, q, rendered)
	prepSpan.End()
	if err != nil {
		return &flightResult{stage: flightStageSynopsis, err: err}
	}
	prep := time.Since(prepStart)
	if auto {
		scheme = cqa.SelectScheme(set)
	}

	// The estimate child carries the cqa.<Scheme> span tree: the run
	// attaches to the span the context carries.
	ectx, espan := obs.StartSpan(ctx, "estimate")
	s.reg.Counter("server_estimate_runs_total", obs.L("instance", in.Name)).Inc()
	res, stats, err := cqa.ApxAnswersFromSetContext(ectx, set, scheme, opts)
	espan.End()
	if stats.Chunks > 0 {
		s.estimatorChunks(in.Name).Add(stats.Chunks)
	}
	if err != nil {
		return &flightResult{stage: flightStageEstimate, scheme: scheme, stats: stats, err: err}
	}
	in.estimates.Add(1)
	return &flightResult{
		scheme:  scheme,
		answers: res,
		stats:   stats,
		source:  source,
		prep:    prep,
	}
}

func (s *Server) handleSynopsis(w http.ResponseWriter, r *http.Request) {
	st := reqStateFrom(r.Context())
	var req SynopsisRequest
	if !s.decode(w, r, &req) {
		return
	}
	in, ok := s.resolveInstance(w, st, req.Instance)
	if !ok {
		return
	}
	q, err := parseQuery(req.Query, in.db)
	if err != nil {
		fail(w, st, http.StatusBadRequest, codeBadQuery, err.Error())
		return
	}
	// Synopsis requests pay a request token (and honor an exhausted
	// work balance) but are not post-charged: the work bucket meters
	// sampling, and synopsis construction does none.
	if d := s.sched.admitRequest(in.Name); d != nil {
		s.rejectQuota(w, st, in.Name, d)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	release, err := s.acquire(ctx, in.Name)
	if err != nil {
		s.writeAdmitError(w, st, err)
		return
	}
	defer release()

	_, prepSpan := obs.StartSpan(ctx, "synopsis")
	start := time.Now()
	set, source, err := s.synopsisFor(ctx, in, q, q.Render(in.db.Dict))
	prepSpan.End()
	if err != nil {
		writeSynopsisError(w, st, err)
		return
	}
	writeJSON(w, http.StatusOK, SynopsisResponse{
		Instance:        in.Name,
		Answers:         set.OutputSize(),
		Balance:         set.Balance(),
		IndicatedScheme: cqa.SelectScheme(set).String(),
		Source:          source,
		ElapsedMS:       float64(time.Since(start).Microseconds()) / 1e3,
	})
}

// summarize builds the wire form of one instance.
func (s *Server) summarize(in *Instance) InstanceSummary {
	entries, bytes := s.lru.residentFor(in.Name)
	weight, quota, gen := s.sched.policy(in.Name)
	return InstanceSummary{
		Name:             in.Name,
		Source:           in.Source,
		Created:          in.Created,
		Facts:            in.db.NumFacts(),
		ResidentSynopses: entries,
		ResidentBytes:    bytes,
		Estimates:        in.estimates.Load(),
		Spec:             in.spec,
		Weight:           weight,
		Quota:            quota,
		Generation:       gen,
	}
}

// handleInstancesList serves GET /v1/instances: every registered
// instance with its residency and usage counters, sorted by name.
func (s *Server) handleInstancesList(w http.ResponseWriter, r *http.Request) {
	ins := s.instances.list()
	out := make([]InstanceSummary, len(ins))
	for i, in := range ins {
		out[i] = s.summarize(in)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":     len(out),
		"instances": out,
	})
}

// handleInstanceRegister serves POST /v1/instances: the body is a
// scenario.InstanceSpec; the database is built (generated or loaded,
// optionally noised) and registered under the spec's name. The name is
// reserved before the build, so a concurrent duplicate registration
// gets an immediate 409 instead of racing a second build. The request
// is attributed to the name only once it names a registered instance:
// a rejected name is no metric label, as nothing would remove its
// series.
func (s *Server) handleInstanceRegister(w http.ResponseWriter, r *http.Request) {
	st := reqStateFrom(r.Context())
	var spec scenario.InstanceSpec
	if !s.decode(w, r, &spec) {
		return
	}
	if err := spec.Validate(); err != nil {
		fail(w, st, http.StatusBadRequest, codeBadInstance, err.Error())
		return
	}
	if err := s.instances.reserve(spec.Name); err != nil {
		if in, lerr := s.instances.lookup(spec.Name); lerr == nil {
			st.rec.Instance = in.Name
		}
		fail(w, st, http.StatusConflict, codeInstanceExists, err.Error())
		return
	}
	db, err := spec.Build()
	if err != nil {
		s.instances.release(spec.Name)
		fail(w, st, http.StatusBadRequest, codeBadInstance, err.Error())
		return
	}
	in := &Instance{
		Name:        spec.Name,
		Source:      "api",
		Created:     time.Now(),
		Fingerprint: spec.Fingerprint(),
		db:          db,
		spec:        &spec,
	}
	s.registerInstance(in, spec.Weight, spec.Quota)
	st.rec.Instance = in.Name
	writeJSON(w, http.StatusCreated, s.summarize(in))
}

// handleInstanceDelete serves DELETE /v1/instances/{name}: the instance
// is unregistered, its resident synopses leave the LRU immediately and
// its metric series leave /metrics once this request is recorded (its
// on-disk syncache entries stay — they are content-addressed and shared
// with identically-built instances).
func (s *Server) handleInstanceDelete(w http.ResponseWriter, r *http.Request) {
	st := reqStateFrom(r.Context())
	name := r.PathValue("name")
	in, err := s.instances.remove(name)
	if err != nil {
		failUnknownInstance(w, st, name, err)
		return
	}
	st.rec.Instance = in.Name
	st.dropSeries = true
	s.lru.dropInstance(in.Name)
	s.sched.dropTenant(in.Name)
	s.log.Info("server: instance deleted", "instance", in.Name)
	writeJSON(w, http.StatusOK, map[string]any{
		"deleted":   in.Name,
		"estimates": in.estimates.Load(),
	})
}

// handleInstancePatch serves PATCH /v1/instances/{name}: runtime
// mutation of an instance's scheduling weight and quota. The update is
// atomic under the scheduler lock; an if_generation mismatch means a
// concurrent tuner won the race and yields 409 (conflict) so the
// caller can re-read and retry. Responds with the updated summary.
func (s *Server) handleInstancePatch(w http.ResponseWriter, r *http.Request) {
	st := reqStateFrom(r.Context())
	name := r.PathValue("name")
	var patch InstancePatch
	if !s.decode(w, r, &patch) {
		return
	}
	in, err := s.instances.lookup(name)
	if err != nil {
		failUnknownInstance(w, st, name, err)
		return
	}
	st.rec.Instance = in.Name
	if err := patch.validate(); err != nil {
		fail(w, st, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if _, err := s.sched.patch(in.Name, patch.Weight, patch.Quota, patch.IfGeneration); err != nil {
		fail(w, st, http.StatusConflict, codeConflict, err.Error())
		return
	}
	s.log.Info("server: instance policy updated", "instance", in.Name)
	writeJSON(w, http.StatusOK, s.summarize(in))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":    state,
		"inflight":  s.sched.inflight(),
		"workers":   s.workers,
		"instances": len(s.instances.names()),
	})
}

// renderAnswers resolves interned values back to strings for the wire.
func renderAnswers(db *relation.Database, res []cqa.TupleFreq) []Answer {
	out := make([]Answer, len(res))
	for i, tf := range res {
		vals := make([]string, len(tf.Tuple))
		for j, v := range tf.Tuple {
			vals[j] = db.Dict.Render(v)
		}
		out[i] = Answer{Tuple: vals, Freq: tf.Freq}
	}
	return out
}
