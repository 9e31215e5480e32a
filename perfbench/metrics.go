package main

import (
	"math"
	"sort"
	"time"
)

// samplerStems are the schemes that draw through a sampler kernel.
var samplerStems = []string{"natural", "kl", "klm"}

// units maps every metric the benchmark reports to its unit. Every
// workload reports every metric: an untraced run the end-to-end ones, a
// traced run the per-layer ones, each measured on the workload's own
// data. BENCHMARK.json declares the same names and units (a test pins
// it).
var units = func() map[string]string {
	u := map[string]string{
		// End to end.
		"setup_s":     "s",
		"peak_rss_mb": "MB",
		"op_ms":       "ms",

		// Per layer.
		"scenario.generate_s":         "s",
		"synopsis.build_s":            "s",
		"synopsis.tuples":             "count",
		"synopsis.images":             "count",
		"syncache.decode_us":          "us",
		"syncache.bytes":              "bytes",
		"mt.ns_per_word":              "ns",
		"estimator.cover.samples":     "count",
		"estimator.cover.ns_per_step": "ns",
		"estimator.kl_par.samples":    "count",
		"estimator.kl_par.chunks":     "count",
		"estimator.kl_par.speedup":    "x",
		"server.overhead_ms":          "ms",
		"server.estimate_ms":          "ms",
		"server.prep_ms":              "ms",
		"server.queue_wait_ms":        "ms",
		"server.response_bytes":       "bytes",
		"go.alloc_bytes_per_op":       "bytes",
		"go.gc_cycles_per_op":         "count",
		"trace.overhead_pct":          "%",
	}
	for _, s := range samplerStems {
		u["sampler."+s+".ns_per_draw"] = "ns"
		u["sampler."+s+".init_us"] = "us"
		u["sampler."+s+".good_ratio"] = "ratio"
		u["sampler."+s+".plain_ns_per_draw"] = "ns"
		u["sampler."+s+".indexed_ns_per_draw"] = "ns"
		u["estimator."+s+".samples"] = "count"
		u["estimator."+s+".loop_ns_per_draw"] = "ns"
	}
	for _, s := range append(samplerStems[:len(samplerStems):len(samplerStems)], "cover") {
		u["cqa."+s+".overhead_us_per_tuple"] = "us"
		u["cqa."+s+".ns_per_draw"] = "ns"
	}
	return u
}()

// endToEnd marks the metrics an untraced run reports; a traced run
// reports all the others.
var endToEnd = map[string]bool{"setup_s": true, "peak_rss_mb": true, "op_ms": true}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// chunkMeans returns the means of xs's consecutive chunks of n values;
// a last, shorter chunk is dropped.
func chunkMeans(xs []float64, n int) []float64 {
	var out []float64
	for i := 0; i+n <= len(xs); i += n {
		out = append(out, mean(xs[i:i+n]))
	}
	return out
}

// mean returns the arithmetic mean (NaN for an empty slice).
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// perDraw returns nanoseconds per draw, 0 when nothing was drawn.
func perDraw(d time.Duration, draws int64) float64 {
	if draws <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(draws)
}
