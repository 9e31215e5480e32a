package harness

import (
	"context"
	"reflect"
	"testing"

	"cqabench/internal/cqa"
	"cqabench/internal/obs"
	"cqabench/internal/syncache"
	"cqabench/internal/synopsis"
)

func counterValue(name string) int64 { return obs.Default().Counter(name).Value() }

// TestWarmRunEqualsCold is the cache's core guarantee: a warm run loads
// every synopsis instead of building it and produces exactly the same
// measurements (samples, tuples) as the cold run that populated the
// cache, because the codec round trip is lossless and estimation is
// deterministic for a fixed seed.
func TestWarmRunEqualsCold(t *testing.T) {
	l := testLab(t)
	w, err := l.NoiseScenario(0, 1, []float64{0.2, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if w.Fingerprint == "" {
		t.Fatal("lab workload carries no fingerprint; caching would be disabled")
	}
	cache, err := syncache.Open(t.TempDir(), syncache.ModeReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Cache = cache
	cfg.BuildWorkers = 4
	// No per-run timeout: a run that hits one reports zero samples, so a
	// slow host (or the race detector) would make the two runs differ
	// for reasons that have nothing to do with the cache.
	cfg.Timeout = 0

	stores0, builds0 := counterValue("syncache_stores_total"), counterValue("synopsis_builds_total")
	cold, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue("syncache_stores_total") - stores0; got != int64(len(w.Pairs)) {
		t.Fatalf("cold run stored %d synopses, want %d", got, len(w.Pairs))
	}
	if got := counterValue("synopsis_builds_total") - builds0; got != int64(len(w.Pairs)) {
		t.Fatalf("cold run built %d synopses, want %d", got, len(w.Pairs))
	}
	for _, m := range cold.Raw {
		if m.PrepSource != "build" {
			t.Fatalf("cold %s/%s prep source = %q, want build", m.Pair, m.Scheme, m.PrepSource)
		}
	}

	hits0, builds0 := counterValue("syncache_hits_total"), counterValue("synopsis_builds_total")
	warm, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue("syncache_hits_total") - hits0; got != int64(len(w.Pairs)) {
		t.Fatalf("warm run hit %d times, want %d", got, len(w.Pairs))
	}
	if got := counterValue("synopsis_builds_total") - builds0; got != 0 {
		t.Fatalf("warm run built %d synopses, want 0", got)
	}
	for _, m := range warm.Raw {
		if m.PrepSource != "load" {
			t.Fatalf("warm %s/%s prep source = %q, want load", m.Pair, m.Scheme, m.PrepSource)
		}
	}

	if len(warm.Raw) != len(cold.Raw) {
		t.Fatalf("raw counts differ: warm %d, cold %d", len(warm.Raw), len(cold.Raw))
	}
	for i := range cold.Raw {
		c, h := cold.Raw[i], warm.Raw[i]
		if c.Pair != h.Pair || c.Scheme != h.Scheme {
			t.Fatalf("measurement order differs at %d: %s/%s vs %s/%s", i, c.Pair, c.Scheme, h.Pair, h.Scheme)
		}
		if c.Samples != h.Samples || c.Tuples != h.Tuples {
			t.Errorf("%s/%s: warm (samples=%d tuples=%d) != cold (samples=%d tuples=%d)",
				c.Pair, c.Scheme, h.Samples, h.Tuples, c.Samples, c.Tuples)
		}
	}
}

// TestLoadedSynopsisMatchesBuilt checks the stronger structural
// property behind warm == cold: the decoded synopsis is DeepEqual to
// the built one, and estimation over it yields identical answers.
func TestLoadedSynopsisMatchesBuilt(t *testing.T) {
	l := testLab(t)
	w, err := l.NoiseScenario(0, 1, []float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := syncache.Open(t.TempDir(), syncache.ModeReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range w.Pairs {
		built, err := synopsis.Build(pair.DB, pair.Query)
		if err != nil {
			t.Fatal(err)
		}
		key := syncache.PairKey(w, pair)
		if err := cache.Put(key, built); err != nil {
			t.Fatal(err)
		}
		loaded, ok := cache.Get(key)
		if !ok {
			t.Fatalf("%s: miss after Put", pair.Name)
		}
		if !reflect.DeepEqual(loaded, built) {
			t.Fatalf("%s: loaded synopsis differs from built", pair.Name)
		}
		opts := cqa.Options{Eps: 0.25, Delta: 0.3, Seed: 5489}
		wantAns, wantStats, err := cqa.ApxAnswersFromSetContext(context.Background(), built, cqa.KLM, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotAns, gotStats, err := cqa.ApxAnswersFromSetContext(context.Background(), loaded, cqa.KLM, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotAns, wantAns) || gotStats.Samples != wantStats.Samples {
			t.Fatalf("%s: estimation over loaded synopsis differs", pair.Name)
		}
	}
}
