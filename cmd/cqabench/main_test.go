package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"cqabench/internal/obs/manifest"
	"cqabench/internal/obs/trace"
)

// The CLI is exercised through run(), the same entry main() uses.

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no subcommand accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help errored: %v", err)
	}
	// figure -id 1|2|4 measures the scenario families; there is no run.
	// answer -scheme exact|all prints what exact and compare printed.
	for _, sub := range []string{"run", "exact", "compare"} {
		if err := run([]string{sub}); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
			t.Fatalf("%s: err %v, want an unknown subcommand", sub, err)
		}
	}
}

func TestGenNoiseAnswerPipeline(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.txt")
	noisyPath := filepath.Join(dir, "noisy.txt")

	if err := run([]string{"gen", "-benchmark", "tpch", "-sf", "0.0002", "-seed", "1", "-out", dbPath}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if fi, err := os.Stat(dbPath); err != nil || fi.Size() == 0 {
		t.Fatalf("gen output missing: %v", err)
	}

	query := "Q(seg) :- customer(c, n, a, nk, ph, b, seg, cm), orders(o, c, st, tp, d, pr, cl, sp, ocm)"
	if err := run([]string{"noise", "-benchmark", "tpch", "-in", dbPath, "-query", query, "-p", "0.4", "-out", noisyPath}); err != nil {
		t.Fatalf("noise: %v", err)
	}

	if err := run([]string{"answer", "-benchmark", "tpch", "-in", noisyPath, "-query", query, "-scheme", "KLM", "-eps", "0.2", "-delta", "0.3"}); err != nil {
		t.Fatalf("answer: %v", err)
	}
	if err := run([]string{"stats", "-benchmark", "tpch", "-in", noisyPath, "-query", query}); err != nil {
		t.Fatalf("stats: %v", err)
	}
}

func TestExactOnSmallInput(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "small.txt")
	content := "region|i:0|s:AFRICA|s:x\nregion|i:1|s:ASIA|s:y\n"
	if err := os.WriteFile(dbPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"answer", "-scheme", "exact", "-benchmark", "tpch", "-in", dbPath, "-query", "Q(n) :- region(k, n, c)"}); err != nil {
		t.Fatalf("answer -scheme exact: %v", err)
	}
}

func TestQuerygen(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.txt")
	if err := run([]string{"gen", "-benchmark", "tpch", "-sf", "0.0002", "-out", dbPath}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"querygen", "-benchmark", "tpch", "-in", dbPath, "-joins", "2", "-constants", "2", "-balances", "0.3,0.8", "-dqg-iterations", "20"}); err != nil {
		t.Fatalf("querygen: %v", err)
	}
}

// TestSubcommandFlagErrors: each command refuses a missing or unknown
// value, and a flag the chosen mode ignores, before it reads a file (the
// input x does not exist).
func TestSubcommandFlagErrors(t *testing.T) {
	q := "Q() :- r(x)"
	for _, tc := range []struct {
		args []string
		want string // a part of the error
	}{
		{[]string{"gen", "-benchmark", "bogus"}, `unknown benchmark "bogus"`},
		{[]string{"noise"}, "requires -in"},
		{[]string{"answer"}, "requires -in"},
		{[]string{"answer", "-scheme", "exact"}, "requires -in"},
		{[]string{"querygen"}, "requires -in"},
		{[]string{"stats"}, "requires -in"},
		{[]string{"answer", "-in", "x", "-query", q, "-scheme", "Bogus"}, `unknown -scheme "Bogus"`},
		{[]string{"answer", "-in", "x", "-query", q, "-scheme", "exact", "-seed", "7"}, "answer -scheme exact does not use -seed"},
		{[]string{"answer", "-in", "x", "-query", q, "-scheme", "exact", "-timeout", "1s"}, "answer -scheme exact does not use -timeout"},
		{[]string{"answer", "-in", "x", "-query", q, "-scheme", "KL", "-max-images", "9"}, "answer -scheme KL does not use -max-images"},
		{[]string{"answer", "-in", "x", "-query", q, "-scheme", "all", "-eps", "2"}, "eps 2 outside (0, 1)"},
		{[]string{"dnf", "-in", "x", "-exact", "-method", "KL"}, "dnf -exact does not use -method"},
		{[]string{"noise", "-in", "x", "-oblivious", "-query", q}, "noise -oblivious does not use -query"},
		{[]string{"stats", "-in", "x", "-explain"}, "-explain needs -query"},
		{[]string{"querygen", "-in", "x", "-dqg-iterations", "20"}, "-dqg-iterations needs -balances"},
		{[]string{"figure", "-id", "99"}, "unknown figure id 99"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestParseLevels(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64
		bad  string // the element the error must quote; "" = valid input
	}{
		{in: "0.2, 0.6,1", want: []float64{0.2, 0.6, 1}},
		{in: "0,1e-1", want: []float64{0, 0.1}},
		{in: "0.5,abc", bad: `"abc"`},
		{in: "0.5x", bad: `"0.5x"`},
		{in: ",", bad: `""`},
		{in: "", bad: `""`},
		{in: "0.5,NaN", bad: `"NaN"`},
		{in: "Inf", bad: `"Inf"`},
	} {
		got, err := parseLevels("levels", tc.in)
		if tc.bad == "" {
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("parseLevels(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "-levels") || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("parseLevels(%q) = %v, %v; want an error naming -levels and %s", tc.in, got, err, tc.bad)
		}
	}
}

// TestLevelFlagsRejectMalformed: every command that takes a level list
// refuses a malformed element before doing any work, naming the flag.
// The small sizes only bound the work a command does if it accepts the
// list.
func TestLevelFlagsRejectMalformed(t *testing.T) {
	for _, bad := range []string{"0.5,abc", "0.5x"} {
		for _, tc := range []struct {
			flag string
			args []string
		}{
			{"-levels", []string{"figure", "-id", "1", "-sf", "0.0002", "-queries", "1", "-timeout", "1s"}},
			{"-noise-levels", []string{"grid", "-sf", "0.0002", "-timeout", "1s", "-families", "noise", "-out", t.TempDir()}},
			{"-levels", []string{"export", "-family", "balance", "-sf", "0.0002", "-out", t.TempDir()}},
			{"-balance-levels", []string{"audit", "-sf", "0.0002", "-trials", "1", "-out", ""}},
			{"-levels", []string{"validate", "-benchmark", "tpcds", "-sf", "0.0002", "-template", "82", "-timeout", "1s"}},
			{"-balances", []string{"querygen"}},
		} {
			args := append(tc.args, tc.flag, bad)
			if err := run(args); err == nil || !strings.Contains(err.Error(), tc.flag+":") {
				t.Errorf("%v: err %v, want an error naming %s", args, err, tc.flag)
			}
		}
	}
}

func TestFigureSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full scenario")
	}
	if err := run([]string{"figure", "-id", "1", "-sf", "0.0002", "-queries", "1", "-joins", "1", "-balance", "0", "-levels", "0.4", "-timeout", "5s"}); err != nil {
		t.Fatalf("figure: %v", err)
	}
}

func TestValidateSingleTemplate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full scenario")
	}
	if err := run([]string{"validate", "-benchmark", "tpcds", "-sf", "0.0002", "-template", "82", "-levels", "0.3", "-timeout", "3s"}); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestAuditSubcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full audit")
	}
	out := filepath.Join(t.TempDir(), "audit.json")
	if err := run([]string{"audit", "-sf", "0.0002", "-balance-levels", "1.0", "-trials", "1",
		"-eps", "0.2", "-delta", "0.3", "-out", out, "-fail-on-violation"}); err != nil {
		t.Fatalf("audit: %v", err)
	}
	var cal struct {
		Manifest *manifest.RunManifest `json:"manifest"`
		Report   struct {
			Schemes []struct {
				Estimates int `json:"estimates"`
			} `json:"schemes"`
		} `json:"report"`
	}
	data, err := os.ReadFile(out)
	if err != nil || json.Unmarshal(data, &cal) != nil {
		t.Fatalf("calibration JSON: %v", err)
	}
	if cal.Manifest == nil || cal.Manifest.Tool != "cqabench audit" || len(cal.Report.Schemes) != 4 {
		t.Fatalf("calibration: manifest %+v, %d schemes", cal.Manifest, len(cal.Report.Schemes))
	}
	for _, s := range cal.Report.Schemes {
		if s.Estimates == 0 {
			t.Fatalf("a scheme audited nothing: %+v", cal.Report.Schemes)
		}
	}
}

func TestGridSubcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("runs scenarios")
	}
	dir := t.TempDir()
	if err := run([]string{"grid", "-sf", "0.0002", "-out", dir,
		"-noise-levels", "0.4", "-balance-levels", "0.5", "-join-levels", "1",
		"-families", "noise", "-timeout", "5s"}); err != nil {
		t.Fatalf("grid: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 2 { // one .txt + one .csv
		t.Fatalf("grid output: %v entries, err %v", len(entries), err)
	}
}

func TestAnswerParallelFlag(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.txt")
	if err := run([]string{"gen", "-benchmark", "tpch", "-sf", "0.0002", "-out", dbPath}); err != nil {
		t.Fatal(err)
	}
	query := "Q(n) :- region(k, n, c)"
	// The run report goes to stderr; the pool branch must time its
	// synopsis build like the sequential one does.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	runErr := run([]string{"answer", "-benchmark", "tpch", "-in", dbPath, "-query", query, "-scheme", "KL", "-parallel", "4"})
	os.Stderr = stderr
	w.Close()
	report, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("answer -parallel: %v", runErr)
	}
	m := regexp.MustCompile(`prep=(\S+)`).FindSubmatch(report)
	if m == nil {
		t.Fatalf("no prep time in report %q", report)
	}
	if prep, err := time.ParseDuration(string(m[1])); err != nil || prep <= 0 {
		t.Fatalf("report %q: prep %q, want a positive duration", report, m[1])
	}
}

func TestCustomSchemaFlow(t *testing.T) {
	dir := t.TempDir()
	schemaPath := filepath.Join(dir, "schema.txt")
	dbPath := filepath.Join(dir, "db.txt")
	schema := "relation Employee(id*, name, dept)\nrelation Dept(name*, budget)\nfk Employee(dept) -> Dept(name)\n"
	if err := os.WriteFile(schemaPath, []byte(schema), 0o644); err != nil {
		t.Fatal(err)
	}
	data := "Employee|i:1|s:Bob|s:HR\nEmployee|i:1|s:Bob|s:IT\nEmployee|i:2|s:Alice|s:IT\nDept|s:HR|i:100\nDept|s:IT|i:200\n"
	if err := os.WriteFile(dbPath, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	query := "Q(n) :- Employee(i, n, d), Dept(d, b)"
	if err := run([]string{"answer", "-scheme", "exact", "-schema", schemaPath, "-in", dbPath, "-query", query}); err != nil {
		t.Fatalf("answer -scheme exact with custom schema: %v", err)
	}
	if err := run([]string{"answer", "-schema", schemaPath, "-in", dbPath, "-query", query, "-scheme", "Natural"}); err != nil {
		t.Fatalf("answer with custom schema: %v", err)
	}
	if err := run([]string{"stats", "-schema", schemaPath, "-in", dbPath}); err != nil {
		t.Fatalf("stats with custom schema: %v", err)
	}
	if err := run([]string{"answer", "-scheme", "exact", "-schema", filepath.Join(dir, "missing.txt"), "-in", dbPath, "-query", query}); err == nil {
		t.Fatal("missing schema file accepted")
	}
}

func TestStatsExplainFlag(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.txt")
	if err := run([]string{"gen", "-benchmark", "tpch", "-sf", "0.0002", "-out", dbPath}); err != nil {
		t.Fatal(err)
	}
	query := "Q(n) :- region(k, n, c), nation(nk, nn, k, cm)"
	if err := run([]string{"stats", "-benchmark", "tpch", "-in", dbPath, "-query", query, "-explain"}); err != nil {
		t.Fatalf("stats -explain: %v", err)
	}
}

func TestExportRunScenarioPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs scenarios")
	}
	dir := filepath.Join(t.TempDir(), "scn")
	if err := run([]string{"export", "-family", "balance", "-sf", "0.0002", "-noise", "0.4", "-joins", "1", "-levels", "0.5,1.0", "-out", dir}); err != nil {
		t.Fatalf("export: %v", err)
	}
	if err := run([]string{"runscenario", "-dir", dir, "-timeout", "5s", "-eps", "0.2", "-delta", "0.3", "-chart"}); err != nil {
		t.Fatalf("runscenario: %v", err)
	}
}

// stdoutOf runs the CLI with args and returns what it printed.
func stdoutOf(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	return string(<-done), runErr
}

// The fields of an answer's stdout that measure time: the synopsis
// build in the header and each scheme's elapsed time in the notes under
// the table.
var (
	prepField    = regexp.MustCompile(`\(prep [^)]*\)`)
	elapsedField = regexp.MustCompile(`(?m)^(\S+:\s+)\S+(, \d+ samples)$`)
)

// TestAnswerStdoutGolden pins, byte for byte apart from the times, what
// the exact answer and the side-by-side comparison of every scheme print
// on a noisy SF 0.0002 TPC-H pair of 23 tuples whose exact column takes
// milliseconds. The table and its notes are in testdata.
func TestAnswerStdoutGolden(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.txt")
	noisyPath := filepath.Join(dir, "noisy.txt")
	query := "Q(nn) :- customer(c, n, a, nk, ph, b, seg, cm), nation(nk, nn, r, ncm)"
	if err := run([]string{"gen", "-benchmark", "tpch", "-sf", "0.0002", "-seed", "1", "-out", dbPath}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := run([]string{"noise", "-benchmark", "tpch", "-in", dbPath, "-query", query, "-p", "0.5", "-out", noisyPath}); err != nil {
		t.Fatalf("noise: %v", err)
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"answer_exact.txt", []string{"answer", "-scheme", "exact"}},
		{"answer_all.txt", []string{"answer", "-scheme", "all", "-seed", "5489", "-timeout", "30s"}},
	} {
		args := append(tc.args, "-benchmark", "tpch", "-in", noisyPath, "-query", query)
		out, err := stdoutOf(t, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		got := elapsedField.ReplaceAllString(prepField.ReplaceAllString(out, "(prep *)"), "${1}*${2}")
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%v printed\n%s\nwant (testdata/%s)\n%s", args, got, tc.golden, want)
		}
	}
}

// TestRunScenarioPrintsAxisTable: an exported joins family reads back
// with its axis, so runscenario prints the share table that figure -id 4
// prints, with no flag to say so.
func TestRunScenarioPrintsAxisTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs scenarios")
	}
	dir := filepath.Join(t.TempDir(), "scn")
	if err := run([]string{"export", "-family", "joins", "-sf", "0.0002", "-noise", "0.4", "-balance", "0.5", "-levels", "3", "-out", dir}); err != nil {
		t.Fatalf("export: %v", err)
	}
	out, err := stdoutOf(t, "runscenario", "-dir", dir, "-timeout", "5s", "-eps", "0.2", "-delta", "0.3")
	if err != nil {
		t.Fatalf("runscenario: %v", err)
	}
	if !strings.Contains(out, "Joins[0.4, 0.5] (share of running time %)") || !strings.Contains(out, "\nJoins ") {
		t.Fatalf("runscenario printed no share table:\n%s", out)
	}
}

func TestDNFSubcommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.dnf")
	if err := os.WriteFile(path, []byte("p dnf 4 2\n1 2 0\n-3 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"dnf", "-in", path, "-exact"}); err != nil {
		t.Fatalf("dnf -exact: %v", err)
	}
	if err := run([]string{"dnf", "-in", path, "-method", "KL", "-eps", "0.2", "-delta", "0.3"}); err != nil {
		t.Fatalf("dnf approx: %v", err)
	}
	if err := run([]string{"dnf", "-in", path, "-method", "Bogus"}); err == nil {
		t.Fatal("bad method accepted")
	}
	if err := run([]string{"dnf"}); err == nil {
		t.Fatal("missing -in accepted")
	}
}

func TestNoiseObliviousFlag(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.txt")
	outPath := filepath.Join(dir, "noisy.txt")
	if err := run([]string{"gen", "-benchmark", "tpch", "-sf", "0.0002", "-out", dbPath}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"noise", "-benchmark", "tpch", "-in", dbPath, "-oblivious", "-p", "0.2", "-out", outPath}); err != nil {
		t.Fatalf("oblivious noise: %v", err)
	}
	if err := run([]string{"noise", "-benchmark", "tpch", "-in", dbPath}); err == nil {
		t.Fatal("noise without -query or -oblivious accepted")
	}
}

func TestCompareSubcommand(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.txt")
	if err := run([]string{"gen", "-benchmark", "tpch", "-sf", "0.0002", "-out", dbPath}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"answer", "-scheme", "all", "-benchmark", "tpch", "-in", dbPath,
		"-query", "Q(n) :- region(k, n, c)", "-eps", "0.2", "-delta", "0.3", "-timeout", "5s", "-parallel", "2"}); err != nil {
		t.Fatalf("answer -scheme all: %v", err)
	}
	if err := run([]string{"answer", "-scheme", "all"}); err == nil {
		t.Fatal("missing flags accepted")
	}
}

func TestSelftest(t *testing.T) {
	if err := run([]string{"selftest"}); err != nil {
		t.Fatalf("selftest: %v", err)
	}
}

func TestFigureJSONFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full scenario")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "fig.json")
	if err := run([]string{"figure", "-id", "1", "-sf", "0.0002", "-queries", "1", "-joins", "1", "-balance", "0", "-levels", "0.4", "-timeout", "5s", "-json", jsonPath}); err != nil {
		t.Fatalf("figure -json: %v", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil || len(data) == 0 {
		t.Fatalf("json output missing: %v", err)
	}
}

// TestFigureTraceOutAndManifest: `figure -trace-out` must produce a
// valid Chrome Trace Event file plus a JSONL journal, and the figure JSON
// and metrics snapshot must both carry a populated provenance manifest.
func TestFigureTraceOutAndManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full scenario")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	jsonPath := filepath.Join(dir, "fig.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	err := run([]string{"figure", "-id", "1", "-sf", "0.0002", "-queries", "1",
		"-joins", "1", "-balance", "0", "-levels", "0.4", "-timeout", "5s",
		"-trace-out", tracePath, "-json", jsonPath, "-metrics-out", metricsPath,
		"-log-format", "json"})
	if err != nil {
		t.Fatalf("figure -trace-out: %v", err)
	}

	var chrome struct {
		TraceEvents []trace.Event `json:"traceEvents"`
		Metadata    struct {
			Manifest *manifest.RunManifest `json:"manifest"`
		} `json:"metadata"`
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) < 3 {
		t.Fatalf("only %d trace events", len(chrome.TraceEvents))
	}
	names := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Phase != "X" || ev.Dur < 0 {
			t.Errorf("bad event %+v", ev)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"cqabench.figure", "synopsis.build", "cqa.KLM"} {
		if !names[want] {
			t.Errorf("trace is missing a %q event (have %v)", want, names)
		}
	}
	if m := chrome.Metadata.Manifest; m == nil || m.Tool != "cqabench figure" || m.GoVersion == "" || m.Config["eps"] == "" {
		t.Errorf("trace manifest: %+v", chrome.Metadata.Manifest)
	}

	entries, err := func() ([]trace.JournalEntry, error) {
		f, err := os.Open(filepath.Join(dir, "trace.jsonl"))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadJournal(f)
	}()
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	if len(entries) < 3 || entries[0].Type != "manifest" {
		t.Fatalf("journal entries: %d, first %+v", len(entries), entries[0])
	}

	var fig struct {
		Manifest *manifest.RunManifest `json:"manifest"`
	}
	data, err = os.ReadFile(jsonPath)
	if err != nil || json.Unmarshal(data, &fig) != nil {
		t.Fatalf("figure json: %v", err)
	}
	if fig.Manifest == nil || fig.Manifest.Tool != "cqabench figure" || fig.Manifest.NumCPU == 0 {
		t.Errorf("figure manifest: %+v", fig.Manifest)
	}

	var snap struct {
		Manifest *manifest.RunManifest `json:"manifest"`
		Metrics  json.RawMessage       `json:"metrics"`
	}
	data, err = os.ReadFile(metricsPath)
	if err != nil || json.Unmarshal(data, &snap) != nil {
		t.Fatalf("metrics snapshot: %v", err)
	}
	if snap.Manifest == nil || snap.Manifest.GoVersion == "" || len(snap.Metrics) == 0 {
		t.Errorf("metrics snapshot envelope: manifest=%+v metrics=%d bytes", snap.Manifest, len(snap.Metrics))
	}
}

// TestLogFormatFlag: the slog front-end rejects unknown formats before
// doing any work.
func TestLogFormatFlag(t *testing.T) {
	if err := run([]string{"figure", "-log-format", "yaml"}); err == nil {
		t.Error("figure accepted -log-format yaml")
	}
}
