package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// readFigureCSV reads a figure CSV (the title column is quoted when it
// holds a comma) and returns its rows at one level, keyed by scheme.
func readFigureCSV(t *testing.T, path, level string) map[string]map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(records) < 2 {
		t.Fatalf("%s: no rows", path)
	}
	header := records[0]
	out := map[string]map[string]string{}
	for _, rec := range records[1:] {
		row := map[string]string{}
		for i, col := range header {
			row[col] = rec[i]
		}
		if row["level"] != level {
			continue
		}
		if _, dup := out[row["scheme"]]; dup {
			t.Fatalf("%s: two %s rows at level %s", path, row["scheme"], level)
		}
		out[row["scheme"]] = row
	}
	return out
}

// TestCommittedFigureCellRedraws re-runs the 20% noise cell of
// results/fig1_b05_j1.csv with the flags that made the file and requires
// every scheme to draw the committed sample count over the committed
// tuple count, without a timeout. Draw counts do not depend on the
// kernels' speed, so this fails when the committed figures go stale the
// way a changed kernel fails the goldens.
func TestCommittedFigureCellRedraws(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cell.csv")
	if err := run([]string{"figure", "-id", "1", "-balance", "0.5", "-joins", "1",
		"-sf", "0.0002", "-queries", "1", "-levels", "0.2", "-timeout", "8s", "-csv", out}); err != nil {
		t.Fatalf("figure: %v", err)
	}
	want := readFigureCSV(t, filepath.Join("..", "..", "results", "fig1_b05_j1.csv"), "20")
	got := readFigureCSV(t, out, "20")
	if len(want) != 4 || len(got) != 4 {
		t.Fatalf("level-20 rows: committed %d, redrawn %d; want one per scheme", len(want), len(got))
	}
	for scheme, w := range want {
		g, ok := got[scheme]
		if !ok {
			t.Errorf("%s: no redrawn row", scheme)
			continue
		}
		for _, col := range []string{"pair", "samples", "tuples", "timed_out"} {
			if g[col] != w[col] {
				t.Errorf("%s %s: redrawn %s, committed %s", scheme, col, g[col], w[col])
			}
		}
	}
}

// TestRejectedCommandLines: a command line that would drop part of what
// it asks for fails and names what it drops, and there is one command
// per figure. Every case also sets -sf 0, which makes data generation
// fail with an error of its own, so a passing case shows that the
// rejection comes before any data is generated.
func TestRejectedCommandLines(t *testing.T) {
	type rejection struct {
		args []string
		want string // the error must contain this
	}
	dir := t.TempDir()
	gridOut := filepath.Join(dir, "grid")
	exportOut := filepath.Join(dir, "export")
	cases := []rejection{
		{[]string{"report"}, `unknown subcommand "report"`},
		{[]string{"figure", "-id", "6"}, "unknown figure id 6"},
		{[]string{"figure", "-id", "1", "-noise", "0.9"}, "so -noise does not apply"},
		{[]string{"figure", "-id", "2", "-balance", "0.5"}, "so -balance does not apply"},
		{[]string{"figure", "-id", "4", "-joins", "3"}, "so -joins does not apply"},
		{[]string{"figure", "-id", "1", "-hold", "1s"}, "-hold needs -metrics-addr"},
		{[]string{"figure", "-id", "2", "-cache", "ro"}, "-cache needs -cache-dir"},
		{[]string{"grid", "-families", "noise,nois", "-out", gridOut}, `-families: unknown family "nois"`},
		{[]string{"export", "-family", "noise", "-noise", "0.9", "-levels", "0.2", "-out", exportOut},
			"export -family noise sweeps noise along its x-axis, so -noise does not apply"},
		{[]string{"export", "-family", "joins", "-joins", "2", "-out", exportOut}, "so -joins does not apply"},
	}
	// Figure 3 times synopsis builds only, so it reads no flag beyond
	// -id, -sf, -seed, -queries and -levels.
	for _, extra := range [][]string{
		{"-timeout", "1s"}, {"-eps", "0.2"}, {"-delta", "0.3"},
		{"-csv", filepath.Join(dir, "f3.csv")}, {"-json", filepath.Join(dir, "f3.json")}, {"-chart"},
		{"-balance", "0.5"}, {"-noise", "0.5"}, {"-joins", "2"},
		{"-metrics-addr", "127.0.0.1:0"}, {"-progress"}, {"-metrics-out", filepath.Join(dir, "m.json")},
		{"-trace-out", filepath.Join(dir, "t.json")}, {"-log-format", "json"}, {"-hold", "1s"},
		{"-cache-dir", filepath.Join(dir, "cache")}, {"-cache", "ro"},
	} {
		args := append([]string{"figure", "-id", "3", "-queries", "1", "-levels", "0.2"}, extra...)
		cases = append(cases, rejection{args, "figure -id 3 does not use " + extra[0] + " "})
	}
	cases = append(cases, rejection{[]string{"figure", "-id", "5"}, "cqabench validate"})
	for _, tc := range cases {
		args := append(tc.args, "-sf", "0")
		if err := run(args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err %v, want one containing %q", args, err, tc.want)
		}
	}
	for _, out := range []string{gridOut, exportOut} {
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("a rejected command line left %s behind (stat: %v)", out, err)
		}
	}
}

// TestValidateRejectsScaleFactor: validate reports the generator's error
// for a scale factor it cannot generate instead of panicking.
func TestValidateRejectsScaleFactor(t *testing.T) {
	for _, bench := range []string{"tpch", "tpcds"} {
		want := bench + ": scale factor must be positive, got 0"
		if err := run([]string{"validate", "-benchmark", bench, "-sf", "0"}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("validate -benchmark %s -sf 0: err %v, want one containing %q", bench, err, want)
		}
	}
}

// TestCommittedRecipesPassFigureCheck reads every figure command that
// results/README.md records and requires the flags it sets to pass
// figure's check, without running it.
func TestCommittedRecipesPassFigureCheck(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "results", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "cqabench figure ")
		if !ok {
			continue
		}
		n++
		id, set := 1, []string(nil)
		fields := strings.Fields(rest)
		for i, f := range fields {
			if f == ">" {
				break
			}
			if !strings.HasPrefix(f, "-") {
				continue
			}
			name, value, hasValue := strings.Cut(strings.TrimLeft(f, "-"), "=")
			set = append(set, name)
			if name != "id" {
				continue
			}
			if !hasValue && i+1 < len(fields) {
				value = fields[i+1]
			}
			if id, err = strconv.Atoi(value); err != nil {
				t.Fatalf("%s: -id %q: %v", line, value, err)
			}
		}
		if err := checkFigureFlags(id, set); err != nil {
			t.Errorf("%s: %v", line, err)
		}
	}
	if n == 0 {
		t.Fatal("results/README.md records no figure command")
	}
}
