package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cqabench/internal/obs"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
)

// The instance registry: the server hosts many named database
// instances, populated at startup from Config.Instances (typically a
// `-instances manifest.json`) and mutated at runtime through
// POST/GET/DELETE /v1/instances. Every estimate and synopsis request
// addresses an instance by name; the registry is the single source of
// truth for which (instance -> database) bindings exist, while resident
// synopsis memory is governed globally by the synopsisLRU.

// Instance is one registered database instance.
type Instance struct {
	// Name addresses the instance in requests, metric labels and the
	// registry API.
	Name string
	// Source records how the instance arrived: "manifest" (startup
	// file), "flags" (single-instance serve flags), "api" (runtime
	// registration) or "config" (embedded server.Config.Instances).
	Source string
	// Created is the registration time.
	Created time.Time
	// Fingerprint identifies the instance contents for syncache keys;
	// empty disables on-disk persistence for this instance's synopses.
	Fingerprint string

	db   *relation.Database
	spec *scenario.InstanceSpec // nil when the DB was provided directly

	// estimates counts completed estimate runs against this instance
	// (leader runs, not coalesced followers).
	estimates atomic.Int64
}

// Registry errors, mapped onto the HTTP error model by the handlers
// (404 unknown_instance, 409 instance_exists, 400 missing_instance).
var (
	// ErrUnknownInstance reports a request addressing an instance that
	// is not registered.
	ErrUnknownInstance = errors.New("server: unknown instance")
	// ErrInstanceExists reports a registration under a name already
	// taken (including one whose build is still in progress).
	ErrInstanceExists = errors.New("server: instance already registered")
	// ErrNoInstance reports a request that named no instance against a
	// server where the choice is ambiguous (zero or several instances
	// and none called "default").
	ErrNoInstance = errors.New("server: no instance selected")
)

// instanceRegistry is the concurrent name -> *Instance map plus the
// server_instances gauge. Registration is two-phase: the name is
// reserved under the lock, a spec's (potentially slow) database build
// runs outside it, and a failed build releases the reservation — so
// concurrent duplicate registrations get an immediate 409 instead of
// racing two builds.
type instanceRegistry struct {
	mu        sync.RWMutex
	instances map[string]*Instance
	pending   map[string]bool
	reg       *obs.Registry
}

func newInstanceRegistry(reg *obs.Registry) *instanceRegistry {
	r := &instanceRegistry{
		instances: make(map[string]*Instance),
		pending:   make(map[string]bool),
		reg:       reg,
	}
	r.publish()
	return r
}

// publish refreshes server_instances; callers need not hold r.mu.
func (r *instanceRegistry) publish() {
	r.mu.RLock()
	n := len(r.instances)
	r.mu.RUnlock()
	r.reg.Gauge("server_instances").Set(float64(n))
}

// reserve claims a name for an in-progress build; release undoes a
// failed build's claim.
func (r *instanceRegistry) reserve(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.instances[name] != nil || r.pending[name] {
		return fmt.Errorf("%w: %q", ErrInstanceExists, name)
	}
	r.pending[name] = true
	return nil
}

func (r *instanceRegistry) release(name string) {
	r.mu.Lock()
	delete(r.pending, name)
	r.mu.Unlock()
}

// commit converts a reservation into a registration.
func (r *instanceRegistry) commit(in *Instance) {
	r.mu.Lock()
	delete(r.pending, in.Name)
	r.instances[in.Name] = in
	r.mu.Unlock()
	r.publish()
}

// remove deletes an instance, returning it for cleanup (LRU drop).
func (r *instanceRegistry) remove(name string) (*Instance, error) {
	r.mu.Lock()
	in, ok := r.instances[name]
	if ok {
		delete(r.instances, name)
	}
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownInstance, name)
	}
	r.publish()
	return in, nil
}

// lookup resolves the instance a request addressed. An empty name is
// accepted only when the choice is unambiguous: a single registered
// instance, or one named "default".
func (r *instanceRegistry) lookup(name string) (*Instance, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		if len(r.instances) == 1 {
			for _, in := range r.instances {
				return in, nil
			}
		}
		if in := r.instances["default"]; in != nil {
			return in, nil
		}
		return nil, fmt.Errorf("%w: %d instances registered, name one in the request", ErrNoInstance, len(r.instances))
	}
	in, ok := r.instances[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownInstance, name)
	}
	return in, nil
}

// list returns every instance sorted by name.
func (r *instanceRegistry) list() []*Instance {
	r.mu.RLock()
	out := make([]*Instance, 0, len(r.instances))
	for _, in := range r.instances {
		out = append(out, in)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// names returns the registered instance names, sorted.
func (r *instanceRegistry) names() []string {
	ins := r.list()
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.Name
	}
	return out
}
