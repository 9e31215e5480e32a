package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cqabench/internal/obs"
	"cqabench/internal/obs/manifest"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
	"cqabench/internal/server"
)

// parseWindows parses a comma-separated list of rolling-window durations
// (e.g. "1m,5m") for the *_window SLO series.
func parseWindows(s string) ([]time.Duration, error) {
	var out []time.Duration
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, err := time.ParseDuration(part)
		if err != nil {
			return nil, err
		}
		if d <= 0 {
			return nil, fmt.Errorf("window %q must be positive", part)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no windows given")
	}
	return out, nil
}

// parseBytes parses a byte size: a plain integer (bytes) or an integer
// with a B/KiB/MiB/GiB suffix. "0" disables the budget.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "GiB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GiB")
	case strings.HasSuffix(s, "MiB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "KiB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KiB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q (want e.g. 64MiB, 512KiB, 1048576)", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("byte size must be non-negative")
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n * mult, nil
}

// cmdServe runs the long-lived estimation service. Instances come from
// an -instances manifest (many named databases), from the single
// -in/-benchmark flags (registered as "default"), or from neither — an
// empty registry populated at runtime via POST /v1/instances. The
// service runs until SIGINT/SIGTERM, then drains in-flight requests for
// up to -drain-timeout.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free one)")
	instances := fs.String("instances", "", "instance manifest JSON declaring the instances to serve (excludes -in)")
	benchmark := fs.String("benchmark", "tpch", "tpch or tpcds")
	schemaPath := fs.String("schema", "", "schema DSL file for -in (overrides -benchmark)")
	in := fs.String("in", "", "database file to serve (empty = generate -benchmark at -sf)")
	sf := fs.Float64("sf", 0.001, "scale factor when generating (excludes -in; 0 selects 0.001, as in a manifest)")
	seed := fs.Uint64("seed", 1, "generator PRNG seed when generating (excludes -in; 0 selects 1, as in a manifest)")
	memBudget := fs.String("synopsis-mem-budget", "0", "resident synopsis memory budget (e.g. 64MiB; 0 = unlimited)")
	workers := fs.Int("workers", 0, "concurrent estimations (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "requests allowed to wait per instance beyond -workers (0 = 2x workers)")
	quotaRate := fs.Float64("default-quota-rate", 0, "default per-instance request tokens per second (0 = unlimited)")
	quotaBurst := fs.Float64("default-quota-burst", 0, "default per-instance request token bucket capacity (0 = max(1, rate))")
	workRate := fs.Float64("default-work-rate", 0, "default per-instance sampling worker-seconds accrued per second (0 = unlimited)")
	workBurst := fs.Float64("default-work-burst", 0, "default per-instance sampling work bucket capacity in worker-seconds (0 = max(1, rate))")
	maxConcurrent := fs.Int("default-max-concurrent", 0, "default per-instance cap on concurrently running requests (0 = none)")
	samplingWorkers := fs.Int("sampling-workers", 0, "default intra-query sampling pool per estimate (0/1 = sequential, N = N substream workers, -1 = auto)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request deadline when the client sends no timeout_ms")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "cap on client-requested timeouts")
	maxBody := fs.Int64("max-body", 1<<20, "request body size cap in bytes")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	reqlogCap := fs.Int("requestlog-cap", server.DefaultRequestLogCap, "recent requests kept for /debug/requests (0 = default)")
	sloWindows := fs.String("slo-windows", "1m,5m", "comma-separated rolling windows for *_window latency quantiles")
	enablePprof := fs.Bool("pprof", false, "mount the runtime profile handlers at /debug/pprof/ on the service mux")
	openCache := cacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *instances != "" && *in != "" {
		return fmt.Errorf("-instances and -in are mutually exclusive (put the file in the manifest)")
	}
	windows, err := parseWindows(*sloWindows)
	if err != nil {
		return fmt.Errorf("-slo-windows: %w", err)
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		return fmt.Errorf("-synopsis-mem-budget: %w", err)
	}
	logger, err := newLogger(*logFormat)
	if err != nil {
		return err
	}
	cache, err := openCache()
	if err != nil {
		return err
	}

	var defaultQuota *scenario.QuotaSpec
	if *quotaRate != 0 || *quotaBurst != 0 || *workRate != 0 || *workBurst != 0 || *maxConcurrent != 0 {
		defaultQuota = &scenario.QuotaSpec{
			Rate:          *quotaRate,
			Burst:         *quotaBurst,
			WorkRate:      *workRate,
			WorkBurst:     *workBurst,
			MaxConcurrent: *maxConcurrent,
		}
		if err := defaultQuota.Validate(); err != nil {
			return err
		}
	}

	cfg := server.Config{
		SynopsisMemBudget: budget,
		Workers:           *workers,
		QueueDepth:        *queue,
		DefaultQuota:      defaultQuota,
		SamplingWorkers:   *samplingWorkers,
		DefaultTimeout:    *reqTimeout,
		MaxTimeout:        *maxTimeout,
		MaxBodyBytes:      *maxBody,
		Cache:             cache,
		Registry:          obs.Default(),
		Logger:            logger,
		RequestLogCap:     *reqlogCap,
		SLOWindows:        windows,
		EnablePprof:       *enablePprof,
	}
	if *instances != "" {
		specs, err := scenario.LoadInstanceManifest(*instances)
		if err != nil {
			return err
		}
		for i := range specs {
			spec := specs[i]
			db, err := spec.Build()
			if err != nil {
				return err
			}
			logger.Info("serve: database ready", "instance", spec.Name,
				"facts", db.NumFacts(), "consistent", relation.IsConsistentDB(db))
			cfg.Instances = append(cfg.Instances, server.InstanceConfig{
				Name:      spec.Name,
				DB:        db,
				KeyPrefix: spec.Fingerprint(),
				Source:    "manifest",
				Spec:      &spec,
				Weight:    spec.Weight,
				Quota:     spec.Quota,
			})
		}
	} else {
		// The flags describe one spec, so the instance's cache keys name
		// the benchmark and schema it was loaded with, as a manifest
		// entry's do. -sf and -seed enter it when it generates or when
		// given, so the spec refuses them beside -in.
		spec := scenario.InstanceSpec{Name: "default", Benchmark: *benchmark,
			Path: *in, SchemaPath: *schemaPath}
		set := setFlags(fs)
		if *in == "" || slices.Contains(set, "sf") {
			spec.ScaleFactor = *sf
		}
		if *in == "" || slices.Contains(set, "seed") {
			spec.Seed = *seed
		}
		db, err := spec.Build()
		if err != nil {
			return err
		}
		logger.Info("serve: database ready", "instance", "default", "facts", db.NumFacts(),
			"consistent", relation.IsConsistentDB(db))
		cfg.Instances = append(cfg.Instances, server.InstanceConfig{
			Name:      "default",
			DB:        db,
			KeyPrefix: spec.Fingerprint(),
			Source:    "flags",
		})
	}

	man := manifest.Collect("cqabench serve", manifest.FlagConfig(fs))
	cfg.Manifest = &man
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	// Catch SIGINT/SIGTERM before announcing the address: a supervisor
	// that signals as soon as it reads "listening on" must get a drain,
	// not the default action that kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s\n", bound)

	<-ctx.Done()
	stop()

	logger.Info("serve: shutting down", "inflight", srv.Inflight(), "drain_timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("serve: drain incomplete: %w", err)
	}
	logCacheSummary(logger, cache)
	logger.Info("serve: stopped")
	return nil
}
