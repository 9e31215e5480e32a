package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
)

// jsonCounter, jsonGauge and jsonHistogram are the stable JSON export
// shapes (Registry.WriteJSON). Label maps marshal with sorted keys, so
// the output is deterministic for a deterministic run.
type jsonCounter struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

type jsonGauge struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

type jsonHistogram struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  uint64            `json:"count"`
	Sum    float64           `json:"sum"`
	Min    float64           `json:"min"`
	Max    float64           `json:"max"`
	Mean   float64           `json:"mean"`
	P50    float64           `json:"p50"`
	P95    float64           `json:"p95"`
	P99    float64           `json:"p99"`
	// Windows carries the rolling-window quantiles for histograms that
	// were registered through Registry.WindowedHistogram.
	Windows []jsonWindow `json:"windows,omitempty"`
}

// jsonWindow is one rolling window's quantile summary.
type jsonWindow struct {
	Window string  `json:"window"` // e.g. "1m", "5m"
	Count  uint64  `json:"count"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
}

type jsonExport struct {
	Counters   []jsonCounter   `json:"counters,omitempty"`
	Gauges     []jsonGauge     `json:"gauges,omitempty"`
	Histograms []jsonHistogram `json:"histograms,omitempty"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// WriteJSON emits every registered metric as indented JSON, sorted by
// (name, labels). Histograms export their count/sum/min/max/mean and the
// p50/p95/p99 summary rather than raw buckets.
func (r *Registry) WriteJSON(w io.Writer) error {
	var out jsonExport
	for _, e := range r.snapshot() {
		switch e.kind {
		case counterKind:
			out.Counters = append(out.Counters, jsonCounter{
				Name: e.name, Labels: labelMap(e.labels), Value: e.counter.Value(),
			})
		case gaugeKind:
			out.Gauges = append(out.Gauges, jsonGauge{
				Name: e.name, Labels: labelMap(e.labels), Value: e.gauge.Value(),
			})
		case histogramKind:
			s := e.hist.Snapshot()
			h := jsonHistogram{
				Name: e.name, Labels: labelMap(e.labels),
				Count: s.Count, Sum: s.Sum, Min: s.Min, Max: s.Max, Mean: s.Mean(),
				P50: s.Quantile(0.50), P95: s.Quantile(0.95), P99: s.Quantile(0.99),
			}
			if wh := e.win.Load(); wh != nil {
				for _, win := range wh.windows {
					ws := wh.WindowSnapshot(win)
					h.Windows = append(h.Windows, jsonWindow{
						Window: FormatWindow(win), Count: ws.Count,
						P50: ws.Quantile(0.50), P95: ws.Quantile(0.95), P99: ws.Quantile(0.99),
					})
				}
			}
			out.Histograms = append(out.Histograms, h)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus emits every registered metric in the Prometheus text
// exposition format (version 0.0.4). Histograms emit cumulative
// non-empty buckets plus the +Inf bucket, _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastType := map[string]bool{} // names whose # TYPE line was written
	for _, e := range r.snapshot() {
		if !lastType[e.name] {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
				return err
			}
			lastType[e.name] = true
		}
		var err error
		labels := labelString(e.labels)
		switch e.kind {
		case counterKind:
			_, err = fmt.Fprintf(w, "%s%s %d\n", e.name, labels, e.counter.Value())
		case gaugeKind:
			_, err = fmt.Fprintf(w, "%s%s %s\n", e.name, labels, promFloat(e.gauge.Value()))
		case histogramKind:
			s := e.hist.Snapshot()
			// The bucket bound goes last, after the sorted labels.
			le := append(slices.Clip(e.labels), L("le", ""))
			for _, b := range s.Buckets() {
				le[len(le)-1].Value = promFloat(b.UpperBound)
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n", e.name, labelString(le), b.Count); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s_sum%s %s\n", e.name, labels, promFloat(s.Sum)); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s_count%s %d\n", e.name, labels, s.Count); err != nil {
				return err
			}
			err = writePromWindows(w, e, lastType)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromWindows emits the rolling-window quantile series for a
// histogram entry registered with a window ring: per (window, quantile)
// a <name>_window gauge with window and quantile labels, plus a
// <name>_window_count gauge per window. An idle window exports zeros, so
// dashboards see the p99 drain rather than the series vanish.
func writePromWindows(w io.Writer, e *entry, lastType map[string]bool) error {
	wh := e.win.Load()
	if wh == nil {
		return nil
	}
	qName, cName := e.name+"_window", e.name+"_window_count"
	for _, name := range []string{qName, cName} {
		if !lastType[name] {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
				return err
			}
			lastType[name] = true
		}
	}
	quantiles := []struct {
		label string
		q     float64
	}{{"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}}
	for _, win := range wh.windows {
		s := wh.WindowSnapshot(win)
		winLabel := L("window", FormatWindow(win))
		for _, qs := range quantiles {
			labels := sortedLabels(e.labels, winLabel, L("quantile", qs.label))
			if _, err := fmt.Fprintf(w, "%s%s %s\n", qName, labelString(labels), promFloat(s.Quantile(qs.q))); err != nil {
				return err
			}
		}
		labels := sortedLabels(e.labels, winLabel)
		if _, err := fmt.Fprintf(w, "%s%s %d\n", cName, labelString(labels), s.Count); err != nil {
			return err
		}
	}
	return nil
}

// sortedLabels merges base with extras and re-sorts by key.
func sortedLabels(base []Label, extras ...Label) []Label {
	out := make([]Label, 0, len(base)+len(extras))
	out = append(out, base...)
	out = append(out, extras...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
