package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExportImportRoundTrip(t *testing.T) {
	l := testLab(t)
	w, err := l.NoiseScenario(0.5, 1, []float64{0.3, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Export(w, dir); err != nil {
		t.Fatal(err)
	}
	// Two noise levels share no database: two .db files plus schema and
	// manifest.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("exported %d files, want 4", len(entries))
	}

	back, err := Import(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != w.Name || back.Axis != NoiseAxis {
		t.Fatalf("name, axis = %q, %q; want %q, %q", back.Name, back.Axis, w.Name, NoiseAxis)
	}
	if len(back.Pairs) != len(w.Pairs) {
		t.Fatalf("pairs = %d, want %d", len(back.Pairs), len(w.Pairs))
	}
	for i := range w.Pairs {
		orig, got := w.Pairs[i], back.Pairs[i]
		if got.Noise != orig.Noise || got.Joins != orig.Joins || got.Target != orig.Target {
			t.Fatalf("pair %d metadata mismatch: %+v vs %+v", i, got, orig)
		}
		if got.DB.NumFacts() != orig.DB.NumFacts() {
			t.Fatalf("pair %d database size mismatch", i)
		}
		if got.Query.NumJoins() != orig.Query.NumJoins() || got.Query.IsBoolean() != orig.Query.IsBoolean() {
			t.Fatalf("pair %d query mismatch", i)
		}
	}
}

func TestExportDeduplicatesDatabases(t *testing.T) {
	l := testLab(t)
	// Balance scenario: all pairs share one noisy database.
	w, err := l.BalanceScenario(0.4, 1, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Export(w, dir); err != nil {
		t.Fatal(err)
	}
	dbs, err := filepath.Glob(filepath.Join(dir, "*.db"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dbs) != 1 {
		t.Fatalf("shared database exported %d times", len(dbs))
	}
}

func TestExportEmptyWorkload(t *testing.T) {
	if err := Export(&Workload{}, t.TempDir()); err == nil {
		t.Fatal("empty export accepted")
	}
}

func TestImportErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Import(dir); err == nil {
		t.Fatal("missing schema accepted")
	}
	os.WriteFile(filepath.Join(dir, "schema.txt"), []byte("relation R(k*, v)\n"), 0o644)
	if _, err := Import(dir); err == nil {
		t.Fatal("missing manifest accepted")
	}
	os.WriteFile(filepath.Join(dir, "manifest.txt"), []byte("too|few|fields\n"), 0o644)
	if _, err := Import(dir); err == nil {
		t.Fatal("malformed manifest accepted")
	}
	os.WriteFile(filepath.Join(dir, "manifest.txt"), []byte(""), 0o644)
	if _, err := Import(dir); err == nil {
		t.Fatal("empty manifest accepted")
	}
	os.WriteFile(filepath.Join(dir, "manifest.txt"),
		[]byte("missing.db|0.1|0.2|0.3|1|Q(v) :- R(k, v)\n"), 0o644)
	if _, err := Import(dir); err == nil {
		t.Fatal("missing database file accepted")
	}
}

// TestImportRequiresAxis: a manifest must say which parameter its
// workload sweeps; one without an axis line, or with an unknown axis, is
// rejected with an error naming the manifest.
func TestImportRequiresAxis(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "manifest.txt")
	os.WriteFile(filepath.Join(dir, "schema.txt"), []byte("relation R(k*, v)\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "pair_000.db"), []byte("R|i:1|i:2\nR|i:1|i:3\n"), 0o644)
	pair := "pair_000.db|0.5|0.5|0.5|0|Q(v) :- R(k, v)\n"
	for _, head := range []string{"# workload: w\n", "# workload: w\n# axis: depth\n"} {
		os.WriteFile(manifest, []byte(head+pair), 0o644)
		_, err := Import(dir)
		if err == nil || !strings.Contains(err.Error(), manifest) {
			t.Errorf("manifest %q: err %v, want an error naming %s", head, err, manifest)
		}
	}
	os.WriteFile(manifest, []byte("# workload: w\n# axis: balance\n"+pair), 0o644)
	w, err := Import(dir)
	if err != nil || w.Axis != BalanceAxis || len(w.Pairs) != 1 {
		t.Fatalf("Import = %+v, %v; want one pair on the balance axis", w, err)
	}
	if err := Export(&Workload{Name: "w", Pairs: w.Pairs}, t.TempDir()); err == nil {
		t.Fatal("export of a workload without an axis accepted")
	}
}
