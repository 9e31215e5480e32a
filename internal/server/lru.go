package server

import (
	"container/list"
	"sync"

	"cqabench/internal/obs"
	"cqabench/internal/synopsis"
)

// synopsisLRU keeps the resident synopsis.Sets of every instance under
// one byte budget. Each entry is charged its canonical encoded length
// (syncache.EncodedSize — the same figure as the .syn file on disk, so
// the budget is plannable from cache directory sizes). Inserting past
// the budget evicts least-recently-used entries first; an evicted
// synopsis is rebuilt or reloaded from syncache on its next request.
// A budget <= 0 disables eviction (everything stays resident, matching
// the pre-registry memo behavior).
//
// The LRU is shared across instances rather than partitioned per
// instance: one global budget is what an operator can actually
// provision for, and a cold instance naturally yields memory to a hot
// one.
type synopsisLRU struct {
	mu       sync.Mutex
	budget   int64
	resident int64
	entries  map[lruKey]*list.Element
	order    *list.List // front = most recently used
	reg      *obs.Registry
}

// lruKey addresses one resident synopsis: the instance plus the
// query's canonical rendering (the instance fixes the database, so the
// rendered text is a sufficient per-instance key).
type lruKey struct {
	instance string
	query    string
}

// lruEntry is the list payload behind each entries slot.
type lruEntry struct {
	key  lruKey
	set  *synopsis.Set
	size int64
}

func newSynopsisLRU(budget int64, reg *obs.Registry) *synopsisLRU {
	l := &synopsisLRU{
		budget:  budget,
		entries: make(map[lruKey]*list.Element),
		order:   list.New(),
		reg:     reg,
	}
	// Expose the budget and the (zero) residency eagerly so the first
	// scrape shows the configured capacity.
	reg.Gauge("synopsis_mem_budget_bytes").Set(float64(budget))
	l.publish()
	return l
}

// publish refreshes the residency gauges; callers hold l.mu.
func (l *synopsisLRU) publish() {
	l.reg.Gauge("synopsis_resident_bytes").Set(float64(l.resident))
	l.reg.Gauge("synopsis_resident_entries").Set(float64(l.order.Len()))
}

// get returns the resident synopsis for key, marking it most recently
// used.
func (l *synopsisLRU) get(key lruKey) (*synopsis.Set, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.entries[key]
	if !ok {
		return nil, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry).set, true
}

// put makes set resident under key at the given size, evicting from the
// cold end until the budget holds. If the same key is already resident
// (a concurrent build won), the first stored set is kept and returned
// so every caller shares one synopsis. An entry larger than the whole
// budget is not stored at all — it still serves the current request,
// it just never becomes resident.
func (l *synopsisLRU) put(key lruKey, set *synopsis.Set, size int64) *synopsis.Set {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.entries[key]; ok {
		l.order.MoveToFront(el)
		return el.Value.(*lruEntry).set
	}
	if l.budget > 0 && size > l.budget {
		l.reg.Counter("synopsis_oversize_total", obs.L("instance", key.instance)).Inc()
		return set
	}
	l.entries[key] = l.order.PushFront(&lruEntry{key: key, set: set, size: size})
	l.resident += size
	for l.budget > 0 && l.resident > l.budget {
		l.evictOldest()
	}
	l.publish()
	return set
}

// evictOldest drops the least-recently-used entry; callers hold l.mu.
func (l *synopsisLRU) evictOldest() {
	el := l.order.Back()
	if el == nil {
		return
	}
	e := el.Value.(*lruEntry)
	l.order.Remove(el)
	delete(l.entries, e.key)
	l.resident -= e.size
	l.reg.Counter("synopsis_evictions_total", obs.L("instance", e.key.instance)).Inc()
}

// dropInstance evicts every entry of one instance (on DELETE
// /v1/instances/{name}); these removals are not counted as evictions —
// the instance is gone, not cold.
func (l *synopsisLRU) dropInstance(instance string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for el := l.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*lruEntry); e.key.instance == instance {
			l.order.Remove(el)
			delete(l.entries, e.key)
			l.resident -= e.size
		}
		el = next
	}
	l.publish()
}

// residentFor counts the resident entries of one instance.
func (l *synopsisLRU) residentFor(instance string) (entries int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for el := l.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*lruEntry); e.key.instance == instance {
			entries++
			bytes += e.size
		}
	}
	return entries, bytes
}
