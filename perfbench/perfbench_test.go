package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// tests compare against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOpListIsAFunctionOfTheSeed(t *testing.T) {
	for name, spec := range libSpecs {
		a, b := opList(spec, 7, 3), opList(spec, 7, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two op lists for seed 7 differ", name)
		}
		c := opList(spec, 8, 3)
		if len(c) != len(a) {
			t.Fatalf("%s: %d ops for seed 8, %d for seed 7", name, len(c), len(a))
		}
		same := 0
		for i := range a {
			if a[i].kind != c[i].kind {
				t.Fatalf("%s: op %d is %s for seed 7, %s for seed 8: the seed may pick only estimator seeds", name, i, a[i].kind.name, c[i].kind.name)
			}
			if a[i].seed == c[i].seed {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 7 and 8 give the same estimator seeds", name)
		}
		if got := len(a) % len(spec.kinds); got != 0 {
			t.Errorf("%s: %d ops is not a whole number of rounds", name, len(a))
		}
	}
	s1, s2 := requestSeqs(7, 48, 2), requestSeqs(7, 48, 2)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("two request sequences for seed 7 differ")
	}
	if reflect.DeepEqual(s1, requestSeqs(8, 48, 2)) {
		t.Error("seeds 7 and 8 give the same request sequences")
	}
}

func TestUnitsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if gated := workloadNames[:gatedWorkloads]; !reflect.DeepEqual(names, gated) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark gates %v", names, gated)
	}
	declared := map[string]bool{}
	for _, m := range b.EndToEnd {
		declared[m.Name] = true
		if !endToEnd[m.Name] || units[m.Name] != m.Unit {
			t.Errorf("end-to-end %s [%s]: the benchmark has end-to-end %v, unit %q", m.Name, m.Unit, endToEnd[m.Name], units[m.Name])
		}
	}
	for _, m := range b.PerLayer {
		declared[m.Name] = true
		if endToEnd[m.Name] || units[m.Name] != m.Unit {
			t.Errorf("per-layer %s [%s]: the benchmark has end-to-end %v, unit %q", m.Name, m.Unit, endToEnd[m.Name], units[m.Name])
		}
	}
	for name := range units {
		if !declared[name] {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
}

// TestPrintedMetricsMatchBenchmarkJSON runs every workload briefly,
// untraced and traced, and checks that each result line holds exactly
// the metrics BENCHMARK.json declares for its mode, in their units.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkJSON(t)
	want := map[string][]string{}
	for _, m := range b.EndToEnd {
		want["0"] = append(want["0"], m.Name)
	}
	for _, m := range b.PerLayer {
		want["1"] = append(want["1"], m.Name)
	}
	sort.Strings(want["0"])
	sort.Strings(want["1"])
	out := t.TempDir()
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace, "--out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d\n%s%s", w, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s --trace %s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s --trace %s: correct %v, attempted %d, failed %d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			var names []string
			for n, m := range res.Metrics {
				names = append(names, n)
				if m.Unit != units[n] {
					t.Errorf("%s: %s printed with unit %q, want %q", w, n, m.Unit, units[n])
				}
			}
			sort.Strings(names)
			if !reflect.DeepEqual(names, want[trace]) {
				t.Errorf("%s --trace %s prints %v, want %v", w, trace, names, want[trace])
			}
		}
	}
}
