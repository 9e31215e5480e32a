package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cqabench/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedTree builds a deterministic span snapshot: a run with one pair,
// the pair holding a synopsis build and two scheme runs.
func fixedTree() []obs.SpanData {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(startMS, endMS int) (time.Time, time.Time) {
		return base.Add(time.Duration(startMS) * time.Millisecond),
			base.Add(time.Duration(endMS) * time.Millisecond)
	}
	s0, e0 := at(0, 100)
	s1, e1 := at(2, 96)
	s2, e2 := at(2, 10)
	s3, e3 := at(10, 50)
	s4, e4 := at(50, 96)
	s5, e5 := at(11, 49)
	return []obs.SpanData{{
		Name: "cqabench.run", Start: s0, End: e0,
		Children: []obs.SpanData{{
			Name: "pair:j1/q0/p0.4", Start: s1, End: e1,
			Children: []obs.SpanData{
				{Name: "synopsis.build", Start: s2, End: e2},
				{Name: "cqa.Natural", Start: s3, End: e3,
					Children: []obs.SpanData{{Name: "estimate", Start: s5, End: e5}}},
				{Name: "cqa.KLM", Start: s4, End: e4},
			},
		}},
	}}
}

func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	manifest := map[string]string{"tool": "test", "git_sha": "deadbeef"}
	if err := WriteChrome(&buf, manifest, fixedTree()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace differs from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeTraceIsValid checks the structural requirements Perfetto /
// chrome://tracing impose on the JSON-object format: a traceEvents
// array whose events carry name/ph/ts/pid/tid, with "X" events also
// carrying dur, and timestamps within the enclosing root.
func TestChromeTraceIsValid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil, fixedTree()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Metadata    map[string]any   `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6", len(f.TraceEvents))
	}
	for i, e := range f.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Errorf("event %d lacks %q: %v", i, k, e)
			}
		}
		if e["ph"] != "X" {
			t.Errorf("event %d: phase %v, want X", i, e["ph"])
		}
		if ts := e["ts"].(float64); ts < 0 {
			t.Errorf("event %d: negative ts %v", i, ts)
		}
		if dur := e["dur"].(float64); dur < 0 {
			t.Errorf("event %d: negative dur %v", i, dur)
		}
	}
	if f.Metadata["base_time"] != "2026-01-02T03:04:05Z" {
		t.Errorf("base_time: %v", f.Metadata["base_time"])
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents": []`) {
		t.Errorf("empty trace must still carry the traceEvents array:\n%s", buf.String())
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	manifest := map[string]string{"tool": "test"}
	if err := WriteJournal(&buf, manifest, fixedTree()); err != nil {
		t.Fatal(err)
	}
	entries, err := readJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 7 { // manifest + 6 spans
		t.Fatalf("got %d entries, want 7", len(entries))
	}
	if entries[0].Type != "manifest" || entries[0].Base == "" || len(entries[0].Manifest) == 0 {
		t.Errorf("header entry: %+v", entries[0])
	}
	var m map[string]string
	if err := json.Unmarshal(entries[0].Manifest, &m); err != nil || m["tool"] != "test" {
		t.Errorf("embedded manifest: %v (%v)", m, err)
	}
	if e := entries[1]; e.Type != "span" || e.Name != "cqabench.run" || e.Depth != 0 || e.DurUS != 100_000 {
		t.Errorf("root entry: %+v", e)
	}
	wantPath := "cqabench.run/pair:j1/q0/p0.4/cqa.Natural/estimate"
	found := false
	for _, e := range entries[1:] {
		if e.Type != "span" {
			t.Errorf("non-span entry after header: %+v", e)
		}
		if e.Path == wantPath {
			found = true
			if e.Depth != 3 || e.DurUS != 38_000 || e.StartUS != 11_000 {
				t.Errorf("estimate entry: %+v", e)
			}
		}
	}
	if !found {
		t.Errorf("no entry with path %q", wantPath)
	}
}

func TestReadJournalRejectsGarbage(t *testing.T) {
	if _, err := readJournal(strings.NewReader("{\"type\":\"span\"}\nnot json\n")); err == nil {
		t.Error("garbage line accepted")
	}
}

// readJournal decodes a JSONL journal into its entries.
func readJournal(r io.Reader) ([]JournalEntry, error) {
	var out []JournalEntry
	dec := json.NewDecoder(r)
	for {
		var e JournalEntry
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}
