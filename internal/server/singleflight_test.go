package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/obs"
)

// N identical concurrent estimate requests must run the estimator
// exactly once: one leader takes the worker slot, the N-1 followers
// coalesce onto its flight (counted in estimate_coalesced_total) and
// all N responses carry the same answers and stats.
func TestEstimateSingleFlightCoalesces(t *testing.T) {
	const followers = 3
	db := smallDB(t)
	s, ts := newTestServer(t, Config{Instances: defaultInstance(db), Workers: 1})

	// Reconstruct the flight key of the request body below so the test
	// hook can hold the leader until every follower is provably waiting
	// on its flight — no sleeps, no races.
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
		for s.flights.waitersFor(key) < followers {
			if time.Now().After(deadline) {
				t.Error("followers never queued on the leader's flight")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	var wg sync.WaitGroup
	responses := make([]EstimateResponse, followers+1)
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

	reg := s.reg
	if v := reg.Counter("server_estimate_runs_total", obs.L("instance", "default")).Value(); v != 1 {
		t.Fatalf("estimator ran %v times, want exactly 1", v)
	}
	if v := reg.Counter("estimate_coalesced_total", obs.L("instance", "default")).Value(); v != followers {
		t.Fatalf("estimate_coalesced_total = %v, want %d", v, followers)
	}
	leaders := 0
	for i, resp := range responses {
		if !resp.Coalesced {
			leaders++
		}
		if resp.Stats.Samples != responses[0].Stats.Samples ||
			len(resp.Answers) != len(responses[0].Answers) {
			t.Fatalf("response %d diverged: %+v vs %+v", i, resp.Stats, responses[0].Stats)
		}
		for j := range resp.Answers {
			if resp.Answers[j].Freq != responses[0].Answers[j].Freq {
				t.Fatalf("response %d answer %d: freq %v != %v",
					i, j, resp.Answers[j].Freq, responses[0].Answers[j].Freq)
			}
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want exactly 1", leaders)
	}
}

// Requests that differ in any key component — seed here — must NOT
// coalesce: each runs its own estimator.
func TestEstimateDifferentOptionsDoNotCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{Instances: defaultInstance(smallDB(t)), Workers: 2})
	var wg sync.WaitGroup
	for _, body := range []string{
		`{"query": "Q(n) :- Employee(i, n, d)", "scheme": "KLM", "seed": 7}`,
		`{"query": "Q(n) :- Employee(i, n, d)", "scheme": "KLM", "seed": 8}`,
	} {
		wg.Add(1)
		go func(body string) {
			defer wg.Done()
			if status, resp, _ := post(t, ts.URL+"/v1/estimate", body); status != http.StatusOK {
				t.Errorf("status = %d: %s", status, resp)
			}
		}(body)
	}
	wg.Wait()
	reg := s.reg
	if v := reg.Counter("server_estimate_runs_total", obs.L("instance", "default")).Value(); v != 2 {
		t.Fatalf("estimator ran %v times, want 2", v)
	}
	if v := reg.Counter("estimate_coalesced_total", obs.L("instance", "default")).Value(); v != 0 {
		t.Fatalf("estimate_coalesced_total = %v, want 0", v)
	}
}

// A follower whose own context expires while the leader is still
// running detaches with its own error; the flight group unit handles
// this without HTTP.
func TestFlightGroupFollowerDetach(t *testing.T) {
	g := newFlightGroup()
	key := flightKey{instance: "a", query: "q"}
	leaderStarted := make(chan struct{})
	releaseLeader := make(chan struct{})
	leaderDone := make(chan *flightResult, 1)
	go func() {
		res, _ := g.do(context.Background(), key, func() *flightResult {
			close(leaderStarted)
			<-releaseLeader
			return &flightResult{source: "build"}
		})
		leaderDone <- res
	}()
	<-leaderStarted

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan *flightResult, 1)
	go func() {
		res, shared := g.do(ctx, key, func() *flightResult {
			t.Error("follower ran the function")
			return nil
		})
		if !shared {
			t.Error("follower not marked shared")
		}
		followerDone <- res
	}()
	// Wait until the follower is registered, then cancel it.
	deadline := time.Now().Add(5 * time.Second)
	for g.waitersFor(key) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	res := <-followerDone
	if res.err == nil {
		t.Fatal("detached follower got no error")
	}
	if g.waitersFor(key) != 0 {
		t.Fatal("detached follower still counted as waiter")
	}

	close(releaseLeader)
	if res := <-leaderDone; res.err != nil || res.source != "build" {
		t.Fatalf("leader result = %+v", res)
	}
	// The completed flight must leave the map: a later identical call
	// runs fresh (coalescing is never a response cache).
	ran := false
	if _, shared := g.do(context.Background(), key, func() *flightResult {
		ran = true
		return &flightResult{}
	}); shared || !ran {
		t.Fatal("completed flight was reused as a cache")
	}
}

// waitersFor reports how many followers are blocked on key right now,
// so coalescing tests can wait for them deterministically.
func (g *flightGroup) waitersFor(key flightKey) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if call, ok := g.m[key]; ok {
		return call.waiters
	}
	return 0
}
