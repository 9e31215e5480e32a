// Package obs is the benchmark's instrumentation layer: counters, gauges
// and log-scale histograms collected in a process-wide Registry, plus
// lightweight nested spans that attribute wall time to pipeline stages
// (synopsis build, sampler construction, estimation).
//
// The package has zero dependencies outside the standard library and is
// safe for concurrent use. Metrics are identified by a name plus an
// optional ordered-insensitive label set:
//
//	obs.Default().Counter("harness_timeouts_total", obs.L("scheme", "KLM")).Inc()
//	obs.Default().Histogram("synopsis_build_seconds").Observe(elapsed.Seconds())
//
// Hot paths should hold on to the metric handle instead of resolving it
// per event:
//
//	c := obs.Default().Counter("sampler_samples_total", obs.L("scheme", s))
//	c.Add(n)
//
// A Registry exports its contents as JSON (Registry.WriteJSON) and in the
// Prometheus text exposition format (Registry.WritePrometheus), and can
// serve both over HTTP together with expvar and pprof (Registry.Serve).
package obs

// Label is one name/value pair attached to a metric. Metrics with the
// same name but different label sets are distinct time series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

var std = NewRegistry()

// Default returns the process-wide registry used by the instrumented
// pipeline packages.
func Default() *Registry { return std }
