package main

import (
	"flag"
	"log/slog"

	"cqabench/internal/obs"
	"cqabench/internal/syncache"
)

// cacheFlags registers the synopsis-cache flags shared by the figure
// and serve subcommands and returns an opener to call after flag
// parsing. Caching is off unless -cache-dir is set.
func cacheFlags(fs *flag.FlagSet) func() (*syncache.Cache, error) {
	dir := fs.String("cache-dir", "", "content-addressed synopsis cache directory (empty = caching off)")
	mode := fs.String("cache", "rw", "synopsis cache mode: rw (load and store), ro (load only) or off")
	return func() (*syncache.Cache, error) {
		m, err := syncache.ParseMode(*mode)
		if err != nil {
			return nil, err
		}
		return syncache.Open(*dir, m)
	}
}

// logCacheSummary reports what the synopsis cache did during a run, so
// a warm invocation visibly confirms that builds were skipped.
func logCacheSummary(logger *slog.Logger, cache *syncache.Cache) {
	if !cache.Enabled() {
		return
	}
	r := obs.Default()
	logger.Info("synopsis cache",
		"dir", cache.Dir(),
		"mode", cache.Mode().String(),
		"hits", r.Counter("syncache_hits_total").Value(),
		"misses", r.Counter("syncache_misses_total").Value(),
		"stores", r.Counter("syncache_stores_total").Value(),
		"builds", r.Counter("synopsis_builds_total").Value())
}
