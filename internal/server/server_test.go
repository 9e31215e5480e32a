package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cqabench/internal/obs"
	"cqabench/internal/relation"
)

// smallDB is the Employee example: one Boolean join query has exact
// frequency 0.5 and "Q(n) :- Employee(i, n, d)" has three answers.
func smallDB(t testing.TB) *relation.Database {
	t.Helper()
	s := relation.MustSchema([]relation.RelDef{
		{Name: "Employee", Attrs: []string{"id", "name", "dept"}, KeyLen: 1},
	}, nil)
	db := relation.NewDatabase(s)
	db.MustInsert("Employee", 1, "Bob", "HR")
	db.MustInsert("Employee", 1, "Bob", "IT")
	db.MustInsert("Employee", 2, "Alice", "IT")
	db.MustInsert("Employee", 2, "Tim", "IT")
	return db
}

// heavyDB returns an instance whose single Boolean answer needs far more
// sampling than any test deadline allows, so requests against it only
// ever end by cancellation, deadline or budget.
func heavyDB(t testing.TB, blocks int) *relation.Database {
	t.Helper()
	s := relation.MustSchema([]relation.RelDef{
		{Name: "R", Attrs: []string{"k", "v"}, KeyLen: 1},
	}, nil)
	db := relation.NewDatabase(s)
	for b := 0; b < blocks; b++ {
		db.MustInsert("R", b, "a")
		db.MustInsert("R", b, "b")
	}
	return db
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t testing.TB, url, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

func TestEstimateHandlerTable(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: smallDB(t), Workers: 2})
	url := ts.URL + "/v1/estimate"
	cases := []struct {
		name   string
		body   string
		status int
		code   string // expected .code of the error body, "" for 2xx
	}{
		{"invalid json", `{`, http.StatusBadRequest, "bad_request"},
		{"unknown field", `{"query": "Q() :- Employee(1, n, d)", "bogus": 1}`, http.StatusBadRequest, "bad_request"},
		{"bad scheme", `{"query": "Q() :- Employee(1, n, d)", "scheme": "Fast"}`, http.StatusBadRequest, "bad_scheme"},
		{"eps out of range", `{"query": "Q() :- Employee(1, n, d)", "eps": 2}`, http.StatusBadRequest, "invalid_options"},
		{"delta out of range", `{"query": "Q() :- Employee(1, n, d)", "delta": 1}`, http.StatusBadRequest, "invalid_options"},
		{"negative budget", `{"query": "Q() :- Employee(1, n, d)", "max_samples": -1}`, http.StatusBadRequest, "invalid_options"},
		{"unparsable query", `{"query": "SELECT *"}`, http.StatusBadRequest, "bad_query"},
		{"unknown relation", `{"query": "Q() :- Nope(x)"}`, http.StatusBadRequest, "bad_query"},
		{"budget exhausted", `{"query": "Q(n) :- Employee(i, n, d)", "scheme": "KLM", "max_samples": 1}`, http.StatusUnprocessableEntity, "budget_exhausted"},
		{"ok", `{"query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)", "scheme": "KLM"}`, http.StatusOK, ""},
		{"ok auto", `{"query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)"}`, http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := post(t, url, tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.status, body)
			}
			if tc.code != "" {
				var e ErrorEnvelope
				if err := json.Unmarshal([]byte(body), &e); err != nil {
					t.Fatalf("error body %q not JSON: %v", body, err)
				}
				if e.Error.Code != tc.code {
					t.Fatalf("code = %q, want %q (%s)", e.Error.Code, tc.code, e.Error.Message)
				}
				if e.Error.Message == "" {
					t.Fatalf("error %q without a message", tc.code)
				}
			}
		})
	}
}

func TestEstimateResponseShape(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: smallDB(t), Workers: 2})
	status, body, _ := post(t, ts.URL+"/v1/estimate",
		`{"query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)", "scheme": "Natural"}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var resp EstimateResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Scheme != "Natural" || len(resp.Answers) != 1 || len(resp.Answers[0].Tuple) != 0 {
		t.Fatalf("unexpected response %+v", resp)
	}
	// ε = 0.1: the estimate must be within ε of the exact frequency 1/2.
	if f := resp.Answers[0].Freq; f < 0.4 || f > 0.6 {
		t.Fatalf("freq = %v, want 0.5 ± 0.1", f)
	}
	if resp.Stats.Samples <= 0 || resp.Stats.NumTuples != 1 {
		t.Fatalf("stats = %+v", resp.Stats)
	}
	if resp.Synopsis != "build" {
		t.Fatalf("first request synopsis source = %q, want build", resp.Synopsis)
	}
	// Same query again: the synopsis must be resident in the LRU.
	_, body, _ = post(t, ts.URL+"/v1/estimate",
		`{"query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)", "scheme": "Natural"}`)
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Synopsis != "lru" {
		t.Fatalf("repeat request synopsis source = %q, want lru", resp.Synopsis)
	}
	if resp.Instance != "default" {
		t.Fatalf("instance = %q, want default", resp.Instance)
	}
}

func TestEstimateDeterministicPerSeed(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: smallDB(t), Workers: 2})
	body := `{"query": "Q(n) :- Employee(i, n, d)", "scheme": "KLM", "seed": 7}`
	_, first, _ := post(t, ts.URL+"/v1/estimate", body)
	_, second, _ := post(t, ts.URL+"/v1/estimate", body)
	var a, b EstimateResponse
	if err := json.Unmarshal([]byte(first), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(second), &b); err != nil {
		t.Fatal(err)
	}
	if len(a.Answers) != len(b.Answers) || a.Stats.Samples != b.Stats.Samples {
		t.Fatalf("repeat run diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	for i := range a.Answers {
		if a.Answers[i].Freq != b.Answers[i].Freq {
			t.Fatalf("answer %d: %v != %v", i, a.Answers[i].Freq, b.Answers[i].Freq)
		}
	}
}

func TestSynopsisEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: smallDB(t), Workers: 2})
	status, body, _ := post(t, ts.URL+"/v1/synopsis", `{"query": "Q(n) :- Employee(i, n, d)"}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var resp SynopsisResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Answers != 3 || resp.Source != "build" {
		t.Fatalf("unexpected response %+v", resp)
	}
	if resp.Balance <= 0 || resp.Balance > 1 {
		t.Fatalf("balance = %v", resp.Balance)
	}
	if resp.IndicatedScheme == "" {
		t.Fatal("missing indicated scheme")
	}
	_, body, _ = post(t, ts.URL+"/v1/synopsis", `{"query": "Q(n) :- Employee(i, n, d)"}`)
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "lru" {
		t.Fatalf("repeat source = %q, want lru", resp.Source)
	}
}

func TestBodySizeLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: smallDB(t), Workers: 1, MaxBodyBytes: 64})
	big := fmt.Sprintf(`{"query": %q}`, "Q() :- Employee(1, n, d)"+strings.Repeat(" ", 200))
	status, body, _ := post(t, ts.URL+"/v1/estimate", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (%s), want 413", status, body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{DB: smallDB(t), Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/estimate = %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{DB: smallDB(t), Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	post(t, ts.URL+"/v1/estimate", `{"query": "Q() :- Employee(1, n, d)", "scheme": "Natural"}`)
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(mb, []byte("server_requests_total")) {
		t.Fatalf("metrics exposition missing server_requests_total:\n%s", mb)
	}
	// Draining flips healthz to 503 for load balancers.
	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
}

// heavydone posts the unbounded heavy query in a goroutine and returns a
// channel with the final status (0 on transport error).
func heavyPost(ts *httptest.Server, client *http.Client, ctx context.Context, timeoutMS int) chan int {
	done := make(chan int, 1)
	go func() {
		body := fmt.Sprintf(`{"query": "Q() :- R(0, 'a')", "scheme": "Natural", "eps": 0.0002, "timeout_ms": %d}`, timeoutMS)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/estimate", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	return done
}

func waitInflight(t testing.TB, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Inflight() != want {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d, want %d after 5s", s.Inflight(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Cancelling a client request mid-estimation must release its worker
// promptly: the estimator polls ctx at each 256-draw chunk boundary, so
// the slot frees within one chunk — milliseconds — not after the many
// seconds the eps=0.003 run would otherwise take.
func TestCancelMidEstimationFreesWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{DB: heavyDB(t, 1000), Workers: 1, QueueDepth: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := heavyPost(ts, ts.Client(), ctx, 600_000)
	waitInflight(t, s, 1)
	time.Sleep(50 * time.Millisecond) // let the sampling loop get going
	start := time.Now()
	cancel()
	waitInflight(t, s, 0)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("worker slot held %v after cancel, want ~one sampling chunk", elapsed)
	}
	<-done
}

// A request whose own deadline expires mid-estimation gets a 504 with
// the canceled error chain, again within about one chunk of the expiry.
func TestRequestDeadlineReturns504(t *testing.T) {
	s, ts := newTestServer(t, Config{DB: heavyDB(t, 1000), Workers: 1})
	done := heavyPost(ts, ts.Client(), context.Background(), 300)
	select {
	case status := <-done:
		if status != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadline-bound request did not return")
	}
	waitInflight(t, s, 0)
}

// With one worker and a queue depth of one, a third concurrent request
// must be turned away immediately with 429 and a Retry-After hint.
func TestQueueFullRejectsWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{DB: heavyDB(t, 1000), Workers: 1, QueueDepth: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := heavyPost(ts, ts.Client(), ctx, 600_000)
	waitInflight(t, s, 1)
	// A distinct timeout keeps the second request out of the first's
	// single-flight key, so it really occupies the queue slot.
	second := heavyPost(ts, ts.Client(), ctx, 600_001)
	// Wait for the second request to occupy the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.sched.admittedTotal() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("admitted = %d, want 2", s.sched.admittedTotal())
		}
		time.Sleep(2 * time.Millisecond)
	}
	status, body, hdr := post(t, ts.URL+"/v1/estimate", `{"query": "Q() :- R(0, 'a')"}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var e ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("429 body %q not JSON: %v", body, err)
	}
	if e.Error.Code != "queue_full" || !e.Error.Retryable || e.Error.Instance != "default" {
		t.Fatalf("queue_full envelope = %+v", e.Error)
	}
	if reg := s.Registry(); reg.Counter("server_rejected_total", obs.L("reason", "queue_full")).Value() == 0 {
		t.Fatal("rejection not counted")
	}
	cancel()
	<-first
	<-second
}

// A queued request whose deadline expires before a worker frees up gets
// a 504 without ever running.
func TestQueuedRequestDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{DB: heavyDB(t, 1000), Workers: 1, QueueDepth: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := heavyPost(ts, ts.Client(), ctx, 600_000)
	waitInflight(t, s, 1)
	queued := heavyPost(ts, ts.Client(), context.Background(), 250)
	select {
	case status := <-queued:
		if status != http.StatusGatewayTimeout {
			t.Fatalf("queued request status = %d, want 504", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request did not expire")
	}
	cancel()
	<-first
}

// Shutdown must drain: the in-flight request runs to its own deadline
// and gets a well-formed response, while requests arriving during the
// drain are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	db := heavyDB(t, 1000)
	s, err := New(Config{DB: db, Workers: 2, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	client := &http.Client{}

	body := `{"query": "Q() :- R(0, 'a')", "scheme": "Natural", "eps": 0.0002, "timeout_ms": 1000}`
	done := make(chan int, 1)
	go func() {
		resp, err := client.Post(base+"/v1/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitInflight(t, s, 1)

	var refused atomic.Int32
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Requests during the drain must be refused — 503 from the draining
	// check on a surviving connection, or a transport error once the
	// listener is closed. None may start new work.
	for i := 0; i < 5; i++ {
		resp, err := client.Post(base+"/v1/estimate", "application/json",
			strings.NewReader(`{"query": "Q() :- R(0, 'a')"}`))
		if err != nil {
			refused.Add(1)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
			refused.Add(1)
		} else {
			t.Errorf("request during drain got %d, want refusal", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}

	select {
	case status := <-done:
		// The in-flight request drained to completion: its own 1s
		// deadline fired and the handler wrote a full 504 response.
		if status != http.StatusGatewayTimeout {
			t.Fatalf("in-flight request finished with %d, want 504", status)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("in-flight request did not complete during drain")
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown did not return after drain")
	}
	if got := refused.Load(); got == 0 {
		t.Fatal("no request was refused during the drain")
	}
}

func TestNewValidatesConfig(t *testing.T) {
	// A server with no instances is valid: it serves the registry API and
	// acquires instances at runtime.
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("zero-instance config rejected: %v", err)
	}
	if got := len(s.Instances()); got != 0 {
		t.Fatalf("instances = %d, want 0", got)
	}
	if _, err := New(Config{DB: smallDB(t), DefaultTimeout: time.Hour, MaxTimeout: time.Second}); err == nil {
		t.Fatal("default timeout above max accepted")
	}
	if _, err := New(Config{Instances: []InstanceConfig{{Name: "a"}}}); err == nil {
		t.Fatal("instance without database accepted")
	}
	if _, err := New(Config{
		DB:        smallDB(t),
		Instances: []InstanceConfig{{Name: "default", DB: smallDB(t)}},
	}); err == nil {
		t.Fatal("duplicate instance name accepted")
	}
	if _, err := New(Config{Instances: []InstanceConfig{{Name: "bad name!", DB: smallDB(t)}}}); err == nil {
		t.Fatal("invalid instance name accepted")
	}
}
