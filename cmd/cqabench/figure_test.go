package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
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
