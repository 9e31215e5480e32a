package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cqabench/internal/obs"
	"cqabench/internal/scenario"
)

// schedGrab runs one blocking acquire in a goroutine and reports its
// outcome. done receives the release func (nil on error).
type schedGrab struct {
	release func()
	err     error
}

func grab(s *scheduler, ctx context.Context, name string) chan schedGrab {
	out := make(chan schedGrab, 1)
	go func() {
		release, _, err := s.acquire(ctx, name)
		out <- schedGrab{release: release, err: err}
	}()
	return out
}

// waitQueued spins until name has n waiters in its FIFO.
func waitQueued(t *testing.T, s *scheduler, name string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.queued(name) != n {
		if time.Now().After(deadline) {
			t.Fatalf("instance %q queued = %d, want %d", name, s.queued(name), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// The DRR core property: under contention, grants split proportionally
// to weight. One worker slot, weights hot:cold = 2:1; grants must
// interleave so every three consecutive grants serve hot twice and
// cold once — the hot tenant's backlog never starves the cold one.
func TestSchedulerWeightProportionalGrants(t *testing.T) {
	const perTenant = 30
	s := newScheduler(1, perTenant+1, nil, obs.NewRegistry())
	s.registerTenant("hot", 2, nil)
	s.registerTenant("cold", 1, nil)

	// Occupy the single slot so all test waiters queue behind it.
	blocker := <-grab(s, context.Background(), "blocker")
	if blocker.err != nil {
		t.Fatal(blocker.err)
	}

	// Each granted waiter appends its tenant and releases, which grants
	// the next — so order is the exact DRR grant sequence.
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	enqueue := func(name string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g := <-grab(s, context.Background(), name)
				if g.err != nil {
					t.Error(g.err)
					return
				}
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				g.release()
			}()
		}
		waitQueued(t, s, name, n)
	}
	enqueue("hot", perTenant)
	enqueue("cold", perTenant)

	blocker.release()
	wg.Wait()

	if len(order) != 2*perTenant {
		t.Fatalf("grants = %d, want %d", len(order), 2*perTenant)
	}
	// While both tenants have backlog (the first 45 grants: 30 hot +
	// 15 cold at 2:1), every window of three serves cold exactly once.
	firstCold := -1
	hotIn30 := 0
	for i, name := range order[:30] {
		if name == "hot" {
			hotIn30++
		} else if firstCold == -1 {
			firstCold = i
		}
	}
	if firstCold == -1 || firstCold > 2 {
		t.Fatalf("cold's first grant at position %d, want within the first DRR round", firstCold)
	}
	// Weight share: hot holds 2/3 of contended grants (20 of 30),
	// exactly under DRR; allow ±2 for the round boundary.
	if hotIn30 < 18 || hotIn30 > 22 {
		t.Fatalf("hot took %d of the first 30 grants, want 20±2 (weights 2:1)", hotIn30)
	}
}

// Equal weights, equal backlog: the split is 50:50 and strictly
// alternating once both queues are populated.
func TestSchedulerEqualWeightsAlternate(t *testing.T) {
	const perTenant = 10
	s := newScheduler(1, perTenant, nil, obs.NewRegistry())
	s.registerTenant("a", 1, nil)
	s.registerTenant("b", 1, nil)
	blocker := <-grab(s, context.Background(), "blocker")
	if blocker.err != nil {
		t.Fatal(blocker.err)
	}
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b"} {
		name := name
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g := <-grab(s, context.Background(), name)
				if g.err != nil {
					t.Error(g.err)
					return
				}
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				g.release()
			}()
		}
		waitQueued(t, s, name, perTenant)
	}
	blocker.release()
	wg.Wait()
	for i := 0; i+1 < len(order); i += 2 {
		if order[i] == order[i+1] {
			t.Fatalf("grants %d,%d both went to %q: %v", i, i+1, order[i], order)
		}
	}
}

// A tenant at its concurrency cap is skipped by the DRR walk — its
// queued work waits, but other tenants' requests flow past it.
func TestSchedulerConcurrencyCap(t *testing.T) {
	s := newScheduler(4, 8, nil, obs.NewRegistry())
	s.registerTenant("capped", 1, &scenario.QuotaSpec{MaxConcurrent: 1})
	s.registerTenant("free", 1, nil)

	first := <-grab(s, context.Background(), "capped")
	if first.err != nil {
		t.Fatal(first.err)
	}
	// Second capped request must queue even though 3 slots are free.
	secondCh := grab(s, context.Background(), "capped")
	waitQueued(t, s, "capped", 1)

	// A free-tenant request flows past the capped queue immediately.
	free := <-grab(s, context.Background(), "free")
	if free.err != nil {
		t.Fatalf("free tenant blocked behind a capped tenant: %v", free.err)
	}
	if s.queued("capped") != 1 {
		t.Fatalf("capped queue drained early (queued = %d)", s.queued("capped"))
	}

	// Releasing the capped slot admits the queued capped request.
	first.release()
	second := <-secondCh
	if second.err != nil {
		t.Fatal(second.err)
	}
	second.release()
	free.release()
}

// The per-instance queue bound: one tenant's full queue rejects with
// errQueueFull without consuming another tenant's headroom.
func TestSchedulerPerInstanceQueueBound(t *testing.T) {
	s := newScheduler(1, 1, nil, obs.NewRegistry())
	blocker := <-grab(s, context.Background(), "a")
	if blocker.err != nil {
		t.Fatal(blocker.err)
	}
	waiting := grab(s, context.Background(), "a")
	waitQueued(t, s, "a", 1)

	_, _, err := s.acquire(context.Background(), "a")
	if !errors.Is(err, errQueueFull) {
		t.Fatalf("over-depth acquire error = %v, want errQueueFull", err)
	}
	// Tenant b's queue is its own: it still has room.
	bCh := grab(s, context.Background(), "b")
	waitQueued(t, s, "b", 1)

	blocker.release()
	for _, ch := range []chan schedGrab{waiting, bCh} {
		g := <-ch
		if g.err != nil {
			t.Fatal(g.err)
		}
		g.release()
	}
}

// A queued request whose context expires leaves the queue; the slot it
// never got goes to the next waiter.
func TestSchedulerQueuedContextExpiry(t *testing.T) {
	s := newScheduler(1, 4, nil, obs.NewRegistry())
	blocker := <-grab(s, context.Background(), "a")
	if blocker.err != nil {
		t.Fatal(blocker.err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	g := <-grab(s, ctx, "a")
	if g.err == nil {
		t.Fatal("expired waiter was granted")
	}
	if n := s.queued("a"); n != 0 {
		t.Fatalf("abandoned waiter still queued (queued = %d)", n)
	}
	if n := s.admittedTotal(); n != 1 {
		t.Fatalf("admitted = %d, want 1 (just the blocker)", n)
	}
	blocker.release()
}

// patch: weight and quota update atomically, if_generation mismatches
// are rejected, and the generation advances per successful update.
func TestSchedulerPatchGeneration(t *testing.T) {
	s := newScheduler(2, 4, nil, obs.NewRegistry())
	s.registerTenant("a", 1, nil)
	w, q, gen := s.policy("a")
	if w != 1 || q != nil || gen != 0 {
		t.Fatalf("initial policy = (%d, %+v, %d)", w, q, gen)
	}

	weight := 5
	gen1, err := s.patch("a", &weight, &scenario.QuotaSpec{Rate: 2}, nil)
	if err != nil || gen1 != 1 {
		t.Fatalf("patch = (%d, %v), want (1, nil)", gen1, err)
	}
	w, q, gen = s.policy("a")
	if w != 5 || gen != 1 || q == nil || q.Rate != 2 || q.Burst != 2 {
		t.Fatalf("patched policy = (%d, %+v, %d)", w, q, gen)
	}

	stale := int64(0)
	if _, err := s.patch("a", &weight, nil, &stale); err == nil {
		t.Fatal("stale if_generation accepted")
	}
	current := int64(1)
	if gen2, err := s.patch("a", nil, &scenario.QuotaSpec{}, &current); err != nil || gen2 != 2 {
		t.Fatalf("conditional patch = (%d, %v), want (2, nil)", gen2, err)
	}
	// The empty quota cleared the limits.
	if _, q, _ := s.policy("a"); q == nil || q.Normalized() != (scenario.QuotaSpec{}) {
		t.Fatalf("cleared quota = %+v, want unlimited", q)
	}
}

// queued reports how many requests are waiting in name's FIFO.
func (s *scheduler) queued(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return len(t.waiters)
	}
	return 0
}

// admittedTotal reports running + waiting requests across all tenants
// (the old single-queue admission counter equivalent).
func (s *scheduler) admittedTotal() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.running
	for _, t := range s.tenants {
		n += len(t.waiters)
	}
	return int64(n)
}
