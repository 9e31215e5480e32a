package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/obs"
	"cqabench/internal/scenario"
)

// patchJSON issues a PATCH and returns (status, body).
func patchJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// holdFirstRun installs an estimate hook that blocks the first run on
// the returned gate (close it to proceed) and stretches every later
// run by perRun, so tests can build deterministic backlogs behind an
// in-flight request and then watch the grant order play out.
func holdFirstRun(s *Server, perRun time.Duration) chan struct{} {
	gate := make(chan struct{})
	var first sync.Once
	s.onEstimateStart = func() {
		held := false
		first.Do(func() { <-gate; held = true })
		if !held {
			time.Sleep(perRun)
		}
	}
	return gate
}

// The fairness e2e: one worker, a hot instance flooding the pool and a
// light instance sending a single request at equal weight. Under the
// old FIFO admission the light request sat behind the hot tenant's
// whole backlog; under DRR it is served within one round, so its queue
// wait is bounded by ~one estimate, not the backlog.
func TestFairnessHotInstanceDoesNotStarveLight(t *testing.T) {
	const hotBacklog = 10
	perRun := 25 * time.Millisecond
	s, ts := newTestServer(t, Config{
		Instances: []InstanceConfig{
			{Name: "hot", DB: smallDB(t)},
			{Name: "light", DB: smallDB(t)},
		},
		Workers:    1,
		QueueDepth: hotBacklog + 2,
	})
	gate := holdFirstRun(s, perRun)

	var wg sync.WaitGroup
	hotWaits := make([]float64, hotBacklog)
	for i := 0; i < hotBacklog; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds keep the flood out of single-flight.
			body := fmt.Sprintf(`{"instance": "hot", "query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)", "scheme": "Natural", "seed": %d}`, i+1)
			status, resp, _ := post(t, ts.URL+"/v1/estimate", body)
			if status != http.StatusOK {
				t.Errorf("hot %d: status %d: %s", i, status, resp)
				return
			}
			var er EstimateResponse
			if json.Unmarshal([]byte(resp), &er) == nil {
				hotWaits[i] = er.Stats.QueueWaitMS
			}
		}(i)
	}
	// The first hot request is held at the gate; wait until the other
	// nine are queued behind it, then queue the light request too.
	deadline := time.Now().Add(5 * time.Second)
	for s.sched.queued("hot") < hotBacklog-1 {
		if time.Now().After(deadline) {
			t.Fatalf("hot backlog = %d, want %d", s.sched.queued("hot"), hotBacklog-1)
		}
		time.Sleep(time.Millisecond)
	}
	lightCh := make(chan EstimateResponse, 1)
	go func() {
		status, resp, _ := post(t, ts.URL+"/v1/estimate",
			`{"instance": "light", "query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)", "scheme": "Natural", "seed": 99}`)
		var er EstimateResponse
		if status != http.StatusOK {
			t.Errorf("light request: status %d: %s", status, resp)
		} else if err := json.Unmarshal([]byte(resp), &er); err != nil {
			t.Error(err)
		}
		lightCh <- er
	}()
	for s.sched.queued("light") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("light request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	light := <-lightCh
	wg.Wait()
	if t.Failed() {
		return
	}

	// The light tenant waits at most ~2 runs (the held one plus one DRR
	// round), never the hot backlog (~10 runs). The generous bound
	// keeps slow CI honest while still separating the regimes by >2x.
	backlogMS := float64(hotBacklog) * float64(perRun.Milliseconds())
	if light.Stats.QueueWaitMS > backlogMS/2 {
		t.Fatalf("light queue wait %.1fms — starved behind the hot backlog (%.0fms)",
			light.Stats.QueueWaitMS, backlogMS)
	}
	// And the hot tail really did represent a backlog: its slowest
	// request waited several runs, so the light bound was a real test.
	maxHot := 0.0
	for _, w := range hotWaits {
		if w > maxHot {
			maxHot = w
		}
	}
	if maxHot < 3*float64(perRun.Milliseconds()) {
		t.Fatalf("hot backlog never built up (max hot wait %.1fms)", maxHot)
	}
}

// Weighted throughput split at the HTTP layer: instances at weights
// 3:1 under equal offered load complete contended grants 3:1, within
// the 20% acceptance band.
func TestFairnessWeightedThroughputSplit(t *testing.T) {
	const perTenant = 16
	s, ts := newTestServer(t, Config{
		Instances: []InstanceConfig{
			{Name: "big", DB: smallDB(t), Weight: 3},
			{Name: "small", DB: smallDB(t), Weight: 1},
		},
		Workers:    1,
		QueueDepth: perTenant + 1,
	})
	gate := holdFirstRun(s, 2*time.Millisecond)

	var mu sync.Mutex
	var completions []string
	var wg sync.WaitGroup
	flood := func(instance string, queued int) {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body := fmt.Sprintf(`{"instance": %q, "query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)", "scheme": "Natural", "seed": %d}`, instance, i+1)
				status, resp, _ := post(t, ts.URL+"/v1/estimate", body)
				if status != http.StatusOK {
					t.Errorf("%s %d: status %d: %s", instance, i, status, resp)
					return
				}
				mu.Lock()
				completions = append(completions, instance)
				mu.Unlock()
			}(i)
		}
		deadline := time.Now().Add(5 * time.Second)
		for s.sched.queued(instance) < queued {
			if time.Now().After(deadline) {
				t.Fatalf("%s backlog = %d, want %d", instance, s.sched.queued(instance), queued)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// big's first request holds the worker at the gate; both backlogs
	// build fully behind it before any contended grant happens.
	flood("big", perTenant-1)
	flood("small", perTenant)
	close(gate)
	wg.Wait()
	if t.Failed() {
		return
	}

	// While both tenants had backlog, grants ran 3:1 — of the first 16
	// completions (one uncontended plus 15 contended) big holds ~12.
	// The 20% band on the 3:1 split admits [10, 14].
	bigEarly := 0
	for _, name := range completions[:perTenant] {
		if name == "big" {
			bigEarly++
		}
	}
	if bigEarly < 10 || bigEarly > 14 {
		t.Fatalf("big took %d of the first %d completions, want 12±2 (weights 3:1): %v",
			bigEarly, perTenant, completions)
	}
}

// Quota rejections carry the full machine-readable surface: 429, the
// Retry-After and X-Quota-* headers, the structured envelope with
// retryable + retry_after_ms, and the rejection counters.
func TestQuota429HeadersAndEnvelope(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Instances: []InstanceConfig{
			{Name: "limited", DB: smallDB(t), Quota: &scenario.QuotaSpec{Burst: 2}},
		},
		Workers: 2,
	})
	body := `{"instance": "limited", "query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)", "scheme": "Natural"}`
	for i := 0; i < 2; i++ {
		if status, resp, _ := post(t, ts.URL+"/v1/estimate", body); status != http.StatusOK {
			t.Fatalf("in-quota request %d: status %d: %s", i, status, resp)
		}
	}
	status, resp, hdr := post(t, ts.URL+"/v1/estimate", body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d (%s), want 429", status, resp)
	}
	if got := hdr.Get("Retry-After"); got != "3600" {
		t.Fatalf("Retry-After = %q, want 3600 (zero-rate clamp)", got)
	}
	if got := hdr.Get("X-Quota-Limit"); got != "2" {
		t.Fatalf("X-Quota-Limit = %q, want 2", got)
	}
	if got := hdr.Get("X-Quota-Remaining"); got != "0" {
		t.Fatalf("X-Quota-Remaining = %q, want 0", got)
	}
	if got := hdr.Get("X-Quota-Reset"); got != "3600.000" {
		t.Fatalf("X-Quota-Reset = %q, want 3600.000", got)
	}
	var e ErrorEnvelope
	if err := json.Unmarshal([]byte(resp), &e); err != nil {
		t.Fatalf("429 body %q not JSON: %v", resp, err)
	}
	if e.Error.Code != "quota_exceeded" || !e.Error.Retryable ||
		e.Error.Instance != "limited" || e.Error.RetryAfterMS <= 0 {
		t.Fatalf("quota envelope = %+v", e.Error)
	}
	reg := s.reg
	if v := reg.Counter("server_quota_rejections_total",
		obs.L("instance", "limited"), obs.L("reason", "requests")).Value(); v != 1 {
		t.Fatalf("server_quota_rejections_total = %v, want 1", v)
	}
	if v := reg.Counter("server_rejected_total", obs.L("reason", "quota_exceeded")).Value(); v != 1 {
		t.Fatalf("server_rejected_total{quota_exceeded} = %v, want 1", v)
	}
	// The synopsis endpoint shares the request bucket.
	if status, _, _ := post(t, ts.URL+"/v1/synopsis",
		`{"instance": "limited", "query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)"}`); status != http.StatusTooManyRequests {
		t.Fatalf("synopsis over-quota status = %d, want 429", status)
	}
}

// Single-flight followers pay their own work quota: a coalesced pair
// debits the instance's work bucket twice even though the estimator
// ran once. This is the anti-bypass property — a thundering herd
// cannot launder unlimited sampling through one leader's admission.
func TestSingleFlightFollowerChargesQuota(t *testing.T) {
	db := smallDB(t)
	s, ts := newTestServer(t, Config{
		Instances: []InstanceConfig{
			{Name: "default", DB: db, Quota: &scenario.QuotaSpec{WorkBurst: 1000}},
		},
		Workers: 1,
	})
	reqBody := `{"query": "Q(n) :- Employee(i, n, d)", "scheme": "KLM", "seed": 7}`
	q, err := parseQuery("Q(n) :- Employee(i, n, d)", db)
	if err != nil {
		t.Fatal(err)
	}
	opts := cqa.DefaultOptions()
	opts.Seed = 7
	key := flightKey{
		instance: "default",
		query:    q.Render(db.Dict),
		scheme:   "KLM",
		options:  optionsFingerprint(opts, 0),
	}
	s.onEstimateStart = func() {
		deadline := time.Now().Add(10 * time.Second)
		for s.flights.waitersFor(key) < 1 {
			if time.Now().After(deadline) {
				t.Error("follower never joined the leader's flight")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	var wg sync.WaitGroup
	responses := make([]EstimateResponse, 2)
	for i := range responses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, _ := post(t, ts.URL+"/v1/estimate", reqBody)
			if status != http.StatusOK {
				t.Errorf("request %d status = %d: %s", i, status, body)
				return
			}
			if err := json.Unmarshal([]byte(body), &responses[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if v := s.reg.Counter("server_estimate_runs_total", obs.L("instance", "default")).Value(); v != 1 {
		t.Fatalf("estimator ran %v times, want 1 (coalesced)", v)
	}
	if !responses[0].Coalesced && !responses[1].Coalesced {
		t.Fatal("no caller was coalesced; the test exercised nothing")
	}

	// Both callers share one flightResult, so both charged the same
	// cost: the bucket is down exactly 2× the run's worker-seconds.
	cost := workSeconds(time.Duration(responses[0].Stats.ElapsedMS*float64(time.Millisecond)),
		responses[0].Stats.SamplingWorkers)
	if cost <= 0 {
		t.Fatalf("run cost = %g, want > 0 (stats %+v)", cost, responses[0].Stats)
	}
	s.sched.mu.Lock()
	tokens := s.sched.tenants["default"].workBucket.tokens
	s.sched.mu.Unlock()
	debited := 1000 - tokens
	// ElapsedMS is rounded to µs on the wire; allow that slack per charge.
	if diff := debited - 2*cost; diff < -0.01 || diff > 0.01 {
		t.Fatalf("work debited = %g, want 2×%g (leader and follower each pay)", debited, cost)
	}
}

// PATCH /v1/instances/{name}: live weight/quota mutation with
// optimistic concurrency, surfaced in instance summaries.
func TestInstancePatchLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Instances: []InstanceConfig{{Name: "tuned", DB: smallDB(t)}},
		Workers:   2,
	})
	url := ts.URL + "/v1/instances/tuned"

	// Initial summary: default weight, no quota, generation 0.
	var listing struct {
		Instances []InstanceSummary `json:"instances"`
	}
	getJSON(t, ts.URL+"/v1/instances", &listing)
	if len(listing.Instances) != 1 || listing.Instances[0].Weight != 1 ||
		listing.Instances[0].Generation != 0 || listing.Instances[0].Quota != nil {
		t.Fatalf("initial summary = %+v", listing.Instances)
	}

	// Weight + quota update; the summary reflects the normalized quota.
	status, body := patchJSON(t, url, `{"weight": 4, "quota": {"rate": 2, "max_concurrent": 3}}`)
	if status != http.StatusOK {
		t.Fatalf("patch status = %d: %s", status, body)
	}
	var sum InstanceSummary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Weight != 4 || sum.Generation != 1 || sum.Quota == nil ||
		sum.Quota.Rate != 2 || sum.Quota.Burst != 2 || sum.Quota.MaxConcurrent != 3 {
		t.Fatalf("patched summary = %+v (quota %+v)", sum, sum.Quota)
	}

	// Stale if_generation: 409 conflict.
	status, body = patchJSON(t, url, `{"weight": 9, "if_generation": 0}`)
	if status != http.StatusConflict {
		t.Fatalf("stale patch status = %d: %s", status, body)
	}
	var e ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error.Code != "conflict" {
		t.Fatalf("stale patch envelope = %+v (%v)", e.Error, err)
	}

	// Matching if_generation: accepted, generation advances.
	status, body = patchJSON(t, url, `{"weight": 9, "if_generation": 1}`)
	if status != http.StatusOK {
		t.Fatalf("conditional patch status = %d: %s", status, body)
	}
	if err := json.Unmarshal([]byte(body), &sum); err != nil || sum.Weight != 9 || sum.Generation != 2 {
		t.Fatalf("conditional patch summary = %+v (%v)", sum, err)
	}

	// Error model: unknown instance; an invalid weight, an invalid quota
	// and an empty patch are bad requests.
	if status, body = patchJSON(t, ts.URL+"/v1/instances/nope", `{"weight": 2}`); status != http.StatusNotFound {
		t.Fatalf("unknown-instance patch = %d: %s", status, body)
	}
	for _, bad := range []string{`{"weight": -1}`, `{"quota": {"rate": -1}}`, `{}`} {
		status, body = patchJSON(t, url, bad)
		var e ErrorEnvelope
		if err := json.Unmarshal([]byte(body), &e); status != http.StatusBadRequest || err != nil || e.Error.Code != "bad_request" {
			t.Fatalf("patch %s = %d %+v (%v), want 400 bad_request", bad, status, e.Error, err)
		}
	}

	// A patched quota takes effect: drop to a 1-request fixed pool and
	// watch the second request bounce, then clear it and recover.
	if status, body = patchJSON(t, url, `{"quota": {"burst": 1}}`); status != http.StatusOK {
		t.Fatalf("quota patch = %d: %s", status, body)
	}
	est := `{"instance": "tuned", "query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)", "scheme": "Natural"}`
	if status, body, _ := post(t, ts.URL+"/v1/estimate", est); status != http.StatusOK {
		t.Fatalf("first post-quota estimate = %d: %s", status, body)
	}
	if status, _, _ := post(t, ts.URL+"/v1/estimate", est); status != http.StatusTooManyRequests {
		t.Fatalf("second post-quota estimate = %d, want 429", status)
	}
	if status, body = patchJSON(t, url, `{"quota": {}}`); status != http.StatusOK {
		t.Fatalf("quota clear = %d: %s", status, body)
	}
	if status, body, _ := post(t, ts.URL+"/v1/estimate", est); status != http.StatusOK {
		t.Fatalf("post-clear estimate = %d: %s", status, body)
	}
}
