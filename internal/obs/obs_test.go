package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestConcurrentIncrements hammers one counter, one gauge and one
// histogram from many goroutines; run under -race this doubles as the
// package's race test, and the final counts must be exact.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Resolve through the registry on purpose: the lookup path
				// must be concurrency-safe too.
				r.Counter("c_total", L("worker", "shared")).Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h_seconds").Observe(float64(i) * 1e-6)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c_total", L("worker", "shared")).Value(); got != workers*perWorker {
		t.Errorf("counter: got %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("h_seconds").Snapshot().Count; got != workers*perWorker {
		t.Errorf("histogram count: got %d, want %d", got, workers*perWorker)
	}
}

func TestLabelIdentity(t *testing.T) {
	r := NewRegistry()
	// Label order must not matter.
	a := r.Counter("x_total", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", L("b", "2"), L("a", "1"))
	if a != b {
		t.Error("label order produced distinct counters")
	}
	c := r.Counter("x_total", L("a", "1"), L("b", "3"))
	if a == c {
		t.Error("different label values shared a counter")
	}
	if u := r.Counter("x_total"); u == a {
		t.Error("unlabeled metric aliased a labeled one")
	}
}

func TestRemoveLabeled(t *testing.T) {
	r := NewRegistry()
	old := r.Counter("req_total", L("instance", "a"), L("code", "200"))
	old.Inc()
	r.WindowedHistogram("lat_seconds", nil, L("instance", "a")).Observe(0.1)
	r.Counter("req_total", L("instance", "b"), L("code", "200")).Inc()
	r.Gauge("up").Set(1)
	r.RemoveLabeled(L("instance", "a"))
	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if out := prom.String(); strings.Contains(out, `instance="a"`) || !strings.Contains(out, `req_total{code="200",instance="b"} 1`) || !strings.Contains(out, "up 1") {
		t.Fatalf("exposition after removal:\n%s", out)
	}
	old.Inc() // a stale handle stays usable
	if fresh := r.Counter("req_total", L("instance", "a"), L("code", "200")); fresh == old || fresh.Value() != 0 {
		t.Fatalf("lookup after removal returned the old series (value %d)", fresh.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("requesting a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m")
}

// Looking up a series that exists must not allocate: the pipeline asks
// for several labeled series per answer tuple.
func TestLookupHitDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", L("scheme", "KL"), L("kernel", "plain")).Inc()
	r.Gauge("g", L("scheme", "KL")).Set(1)
	r.Histogram("h_seconds", L("b", "2"), L("a", "1")).Observe(1)
	r.Counter("bare_total").Inc()
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("c_total", L("kernel", "plain"), L("scheme", "KL")).Inc()
		r.Gauge("g", L("scheme", "KL")).Set(2)
		r.Histogram("h_seconds", L("a", "1"), L("b", "2")).Observe(2)
		r.Counter("bare_total").Inc()
	})
	if allocs != 0 {
		t.Fatalf("lookups of existing series allocated %.1f times per run", allocs)
	}
	// The hits landed on the registered series, in either label order.
	if v := r.Counter("c_total", L("scheme", "KL"), L("kernel", "plain")).Value(); v != 102 {
		t.Fatalf("c_total = %d, want 102", v)
	}
	if n := len(r.snapshot()); n != 4 {
		t.Fatalf("%d series, want 4", n)
	}
}

// The series key keeps its rendering: name{k="v",...}, keys sorted,
// values quoted as by %q.
func TestSeriesKeyFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", L("z", "a\"b\n"), L("a", "é")).Inc()
	for key := range r.entries {
		if want := `x_total{a="é",z="a\"b\n"}`; key != want {
			t.Fatalf("key %s, want %s", key, want)
		}
	}
}
