package server

import (
	"context"
	"fmt"
	"sync"

	"cqabench/internal/obs"
	"cqabench/internal/scenario"
)

// The admission scheduler: weighted deficit-round-robin (DRR) fair
// queueing across instances over one shared worker pool. Each instance
// (tenant) owns a bounded FIFO of waiters; tenants with waiters sit in
// a ring, and freed worker slots are granted by walking the ring with
// per-tenant deficit counters topped up by the tenant's weight. With
// weights w_i, tenant i receives w_i / Σw_j of contended slots — a hot
// instance keeps the pool busy when it is alone but can no longer
// starve a light one: the light tenant's next request waits at most
// one DRR round, not the hot tenant's whole backlog.
//
// The scheduler also owns per-tenant quota state (token buckets and
// concurrency caps, see quota.go): tenants at their MaxConcurrent are
// skipped by the dispatch walk without a deficit top-up, so caps cost
// no fairness share.

// schedWaiter is one request queued for a worker slot. ready closes
// when the slot is granted; granted disambiguates grant-vs-abandon
// races under the scheduler lock.
type schedWaiter struct {
	t       *tenant
	ready   chan struct{}
	granted bool
}

// tenant is the per-instance scheduling state. All fields are guarded
// by the scheduler mutex.
type tenant struct {
	name string

	// weight and deficit drive the DRR walk. weight >= 1; an idle
	// tenant's deficit is reset to 0 (no banked credit across idle
	// periods — classic DRR).
	weight  int64
	deficit int64

	// generation counts policy updates (weight/quota), backing the
	// PATCH if_generation optimistic-concurrency check.
	generation int64

	// running / maxConcurrent enforce the per-instance concurrency cap
	// (0 = uncapped). waiters is the bounded FIFO; inRing tracks ring
	// membership (waiters nonempty <=> inRing).
	running       int
	maxConcurrent int
	waiters       []*schedWaiter
	inRing        bool

	// reqBucket / workBucket are the instance's token buckets (nil =
	// unlimited); quota echoes the normalized spec for summaries.
	reqBucket  *bucket
	workBucket *bucket
	quota      *scenario.QuotaSpec
}

// atCap reports whether the tenant may not start another request.
func (t *tenant) atCap() bool {
	return t.maxConcurrent > 0 && t.running >= t.maxConcurrent
}

// scheduler is the DRR admission scheduler. capacity is the worker
// pool size; queueDepth bounds each tenant's waiter FIFO.
type scheduler struct {
	mu         sync.Mutex
	capacity   int
	queueDepth int
	running    int
	tenants    map[string]*tenant
	ring       []*tenant
	ringPos    int
	reg        *obs.Registry

	// defaults for tenants created without explicit policy (unknown
	// instances, or specs without weight/quota).
	defaultQuota *scenario.QuotaSpec
}

func newScheduler(capacity, queueDepth int, defaultQuota *scenario.QuotaSpec, reg *obs.Registry) *scheduler {
	return &scheduler{
		capacity:     capacity,
		queueDepth:   queueDepth,
		tenants:      make(map[string]*tenant),
		reg:          reg,
		defaultQuota: defaultQuota,
	}
}

// buckets materializes a quota spec into token buckets (nil spec or
// zero fields mean no bucket).
func buckets(q *scenario.QuotaSpec) (req, work *bucket, norm *scenario.QuotaSpec, maxConc int) {
	if q == nil {
		return nil, nil, nil, 0
	}
	n := q.Normalized()
	if n.Burst > 0 {
		req = newBucket(n.Rate, n.Burst)
	}
	if n.WorkBurst > 0 {
		work = newBucket(n.WorkRate, n.WorkBurst)
	}
	return req, work, &n, n.MaxConcurrent
}

// tenantLocked returns (creating on demand) the tenant for name. An
// on-demand tenant gets weight 1 and the scheduler's default quota —
// the path requests to just-registered or unknown instances take
// before registerTenant ran.
func (s *scheduler) tenantLocked(name string) *tenant {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	t := &tenant{name: name, weight: 1}
	t.reqBucket, t.workBucket, t.quota, t.maxConcurrent = buckets(s.defaultQuota)
	s.tenants[name] = t
	return t
}

// registerTenant installs an instance's scheduling policy (weight 0
// selects the default 1; quota nil selects the scheduler default).
func (s *scheduler) registerTenant(name string, weight int, quota *scenario.QuotaSpec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenantLocked(name)
	if weight <= 0 {
		weight = 1
	}
	t.weight = int64(weight)
	if quota == nil {
		quota = s.defaultQuota
	}
	t.reqBucket, t.workBucket, t.quota, t.maxConcurrent = buckets(quota)
	s.publishTenantLocked(t)
}

// dropTenant forgets an instance's scheduling state. In-flight
// requests keep their slots (release recreates a transient tenant to
// decrement against); waiters should already be gone since the
// instance left the registry before its tenant is dropped.
func (s *scheduler) dropTenant(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		return
	}
	s.reg.Gauge("server_queue_depth", obs.L("instance", name)).Set(0)
	s.reg.Gauge("server_scheduler_deficit", obs.L("instance", name)).Set(0)
	if t.inRing || t.running > 0 {
		// Still active: keep the state so releases balance; it will be
		// garbage once idle (harmless — bounded by instance churn).
		return
	}
	delete(s.tenants, name)
}

// patch atomically updates a tenant's policy. ifGen, when non-nil,
// must match the tenant's current generation — the optimistic
// concurrency check behind PATCH's 409. Returns the new generation.
func (s *scheduler) patch(name string, weight *int, quota *scenario.QuotaSpec, ifGen *int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenantLocked(name)
	if ifGen != nil && *ifGen != t.generation {
		return t.generation, fmt.Errorf("generation %d does not match current %d", *ifGen, t.generation)
	}
	if weight != nil {
		w := *weight
		if w <= 0 {
			w = 1
		}
		t.weight = int64(w)
		if t.deficit > t.weight {
			t.deficit = t.weight
		}
	}
	if quota != nil {
		t.reqBucket, t.workBucket, t.quota, t.maxConcurrent = buckets(quota)
	}
	t.generation++
	// A raised cap (or lifted quota) may unblock queued work.
	s.dispatchLocked()
	s.publishTenantLocked(t)
	s.reg.Gauge("server_inflight").Set(float64(s.running))
	return t.generation, nil
}

// policy reports a tenant's current scheduling policy for summaries.
func (s *scheduler) policy(name string) (weight int64, quota *scenario.QuotaSpec, generation int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		return 1, nil, 0
	}
	return t.weight, t.quota, t.generation
}

// schedOutcome is what acquire learned while admitting, recorded on
// the request's debug record.
type schedOutcome struct {
	queued      bool
	queuedAhead int
	weight      int64
	deficit     int64
}

// acquire admits one request for instance name: immediately when the
// pool has a free slot and no one is queued anywhere, otherwise
// through the tenant's FIFO and the DRR walk. It fails fast when the
// tenant's queue is full (errQueueFull) and gives up when ctx expires
// (the waiter leaves the queue). On success the returned release must
// be called exactly once.
func (s *scheduler) acquire(ctx context.Context, name string) (release func(), out schedOutcome, err error) {
	s.mu.Lock()
	t := s.tenantLocked(name)
	out.weight = t.weight
	if s.running < s.capacity && len(s.ring) == 0 && !t.atCap() {
		t.running++
		s.running++
		s.reg.Gauge("server_inflight").Set(float64(s.running))
		s.mu.Unlock()
		return s.releaseFunc(t), out, nil
	}
	if len(t.waiters) >= s.queueDepth {
		n := len(t.waiters)
		s.mu.Unlock()
		return nil, out, fmt.Errorf("%w: instance %q has %d requests queued (queue depth %d per instance)",
			errQueueFull, name, n, s.queueDepth)
	}
	w := &schedWaiter{t: t, ready: make(chan struct{})}
	out.queued = true
	out.queuedAhead = len(t.waiters)
	out.deficit = t.deficit
	t.waiters = append(t.waiters, w)
	if !t.inRing {
		t.inRing = true
		s.ring = append(s.ring, t)
	}
	// A slot may be free even though we queued (capped tenants, or the
	// fast path declined because others were waiting): run the walk.
	s.dispatchLocked()
	s.publishTenantLocked(t)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return s.releaseFunc(t), out, nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	if w.granted {
		// Lost the race: a grant landed while ctx was expiring. Give the
		// slot back (dispatching a successor) and report the expiry.
		s.releaseLocked(t)
	} else {
		s.removeWaiterLocked(t, w)
	}
	s.publishTenantLocked(t)
	s.mu.Unlock()
	return nil, out, fmt.Errorf("request expired while queued: %w", ctx.Err())
}

// releaseFunc returns the slot-release closure for a granted tenant.
func (s *scheduler) releaseFunc(t *tenant) func() {
	return func() {
		s.mu.Lock()
		s.releaseLocked(t)
		s.publishTenantLocked(t)
		s.mu.Unlock()
	}
}

func (s *scheduler) releaseLocked(t *tenant) {
	t.running--
	s.running--
	s.dispatchLocked()
	s.reg.Gauge("server_inflight").Set(float64(s.running))
}

// dispatchLocked grants freed slots until the pool is full or no
// eligible waiter remains.
func (s *scheduler) dispatchLocked() {
	for s.grantNextLocked() {
	}
}

// grantNextLocked performs one step of the DRR walk: visit the ring
// from ringPos, skipping tenants at their concurrency cap (no top-up),
// topping up the first eligible tenant's deficit by its weight when
// spent, and granting its head waiter one slot. The walk stays on a
// tenant while it has both deficit and waiters, so a weight-w tenant
// receives up to w consecutive grants per round.
func (s *scheduler) grantNextLocked() bool {
	if s.running >= s.capacity {
		return false
	}
	skipped := 0
	for skipped < len(s.ring) {
		if len(s.ring) == 0 {
			return false
		}
		if s.ringPos >= len(s.ring) {
			s.ringPos = 0
		}
		t := s.ring[s.ringPos]
		if t.atCap() {
			s.ringPos++
			skipped++
			continue
		}
		if t.deficit < 1 {
			t.deficit += t.weight
		}
		t.deficit--
		w := t.waiters[0]
		copy(t.waiters, t.waiters[1:])
		t.waiters[len(t.waiters)-1] = nil
		t.waiters = t.waiters[:len(t.waiters)-1]
		w.granted = true
		t.running++
		s.running++
		close(w.ready)
		if len(t.waiters) == 0 {
			s.leaveRingLocked(s.ringPos, t)
		} else if t.deficit < 1 {
			s.ringPos++
		}
		s.publishTenantLocked(t)
		s.reg.Gauge("server_inflight").Set(float64(s.running))
		return true
	}
	return false
}

// leaveRingLocked removes the tenant at ring index i; an emptied
// tenant forfeits its remaining deficit (no banked credit while idle).
func (s *scheduler) leaveRingLocked(i int, t *tenant) {
	t.inRing = false
	t.deficit = 0
	s.ring = append(s.ring[:i], s.ring[i+1:]...)
	if s.ringPos > i {
		s.ringPos--
	}
}

// removeWaiterLocked drops an abandoned waiter from its tenant's FIFO.
func (s *scheduler) removeWaiterLocked(t *tenant, w *schedWaiter) {
	for i, cand := range t.waiters {
		if cand == w {
			t.waiters = append(t.waiters[:i], t.waiters[i+1:]...)
			break
		}
	}
	if len(t.waiters) == 0 && t.inRing {
		for i, cand := range s.ring {
			if cand == t {
				s.leaveRingLocked(i, t)
				break
			}
		}
	}
}

// publishTenantLocked refreshes the per-instance scheduling gauges.
func (s *scheduler) publishTenantLocked(t *tenant) {
	s.reg.Gauge("server_queue_depth", obs.L("instance", t.name)).Set(float64(len(t.waiters)))
	s.reg.Gauge("server_scheduler_deficit", obs.L("instance", t.name)).Set(float64(t.deficit))
}

// inflight reports requests currently holding a worker slot.
func (s *scheduler) inflight() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.running)
}
