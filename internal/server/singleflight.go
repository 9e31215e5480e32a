package server

import (
	"context"
	"sync"
	"time"

	"cqabench/internal/cqa"
)

// Single-flight coalescing for POST /v1/estimate: identical in-flight
// requests share one computation. Two estimate requests are identical
// when they agree on the instance, the query's canonical rendering, the
// requested scheme, and the full options fingerprint (eps, delta, seed,
// budget, convergence recording, timeout) — estimation is deterministic
// per seed, so the coalesced callers would each have computed exactly
// the answers, stats and PRNG stream the leader computes. A thundering
// herd of N identical requests therefore takes one worker slot, runs
// the estimator once, and fans the result out N ways; the N-1 followers
// are counted in estimate_coalesced_total.
//
// Followers share the leader's outcome — including its admission
// rejection or error, which every caller would have hit identically —
// but a follower whose own deadline expires while waiting gets its own
// 504 and detaches without affecting the flight.
//
// Coalescing never bypasses per-instance quota: every caller passes
// the quota gate before joining a flight (one request token each) and
// post-charges the flight's sampling cost against its own instance
// afterwards (see handleEstimate), so N coalesced requests debit N
// times the work even though the estimator ran once.

// flightKey identifies one coalescable estimate computation.
type flightKey struct {
	instance string
	query    string // canonical rendering, not the request text
	scheme   string // requested scheme ("auto" before resolution)
	options  string // options fingerprint (see EstimateRequest.fingerprint)
}

// flightStage tells the caller which stage of the leader's run produced
// a flightResult's error, so each caller maps it onto the right part of
// the HTTP error model (admission codes vs run codes).
type flightStage int

const (
	flightStageNone flightStage = iota
	flightStageAdmit
	flightStageSynopsis
	flightStageEstimate
)

// flightResult is everything a completed estimate flight fans out to
// its callers. Answers stay in interned (dictionary-value) form; each
// caller renders them against the shared instance's dictionary.
type flightResult struct {
	scheme  cqa.Scheme
	answers []cqa.TupleFreq
	stats   cqa.Stats
	source  string // synopsis source: lru, load or build
	prep    time.Duration
	stage   flightStage // stage that produced err
	err     error       // admission or run error, mapped per caller
}

// flightCall is one in-flight computation: done closes when result is
// set.
type flightCall struct {
	done    chan struct{}
	result  *flightResult
	waiters int // followers currently waiting (tests synchronize on it)
}

// flightGroup deduplicates in-flight calls by key. Completed calls
// leave the map immediately — coalescing is strictly for concurrent
// requests, never a response cache.
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flightCall
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[flightKey]*flightCall)}
}

// do runs fn once per key among concurrent callers. The first caller
// (the leader) executes fn; followers block until the leader finishes
// (sharing its result, shared=true) or their own ctx expires (result is
// ctx.Err() wrapped in a flightResult, still shared=true since no
// computation ran for them).
func (g *flightGroup) do(ctx context.Context, key flightKey, fn func() *flightResult) (res *flightResult, shared bool) {
	g.mu.Lock()
	if call, ok := g.m[key]; ok {
		call.waiters++
		g.mu.Unlock()
		select {
		case <-call.done:
			return call.result, true
		case <-ctx.Done():
			// Detach: the leader keeps running for the other callers.
			g.mu.Lock()
			call.waiters--
			g.mu.Unlock()
			return &flightResult{err: ctx.Err()}, true
		}
	}
	call := &flightCall{done: make(chan struct{})}
	g.m[key] = call
	g.mu.Unlock()

	call.result = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(call.done)
	return call.result, false
}
