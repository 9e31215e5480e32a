package syncache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cqabench/internal/scenario"
	"cqabench/internal/synopsis"
)

// buildGoldenPath holds the SHA-256 of Encode(synopsis.Build(db, q)) for
// every pair of buildGoldenPairs, keyed by pair name.
const buildGoldenPath = "testdata/build_golden.json"

// buildGoldenPairs generates the pinned Lab pairs: SF 0.0002, one query
// per join level, joins 1–3 × noise {0.2, 0.6, 1.0} × balance {0, 0.5, 1}.
// The encoding is canonical, so equal hashes mean the builder returned
// the same tuples, pairs, facts, entry order and homomorphic size.
func buildGoldenPairs(t *testing.T) []scenario.Pair {
	t.Helper()
	cfg := scenario.DefaultConfig()
	cfg.ScaleFactor = 0.0002
	cfg.QueriesPerJoin = 1
	lab, err := scenario.NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []scenario.Pair
	for _, balance := range []float64{0, 0.5, 1} {
		for joins := 1; joins <= 3; joins++ {
			w, err := lab.NoiseScenario(balance, joins, []float64{0.2, 0.6, 1.0})
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, w.Pairs...)
		}
	}
	return pairs
}

// TestBuildGolden pins the synopsis builder's output bit for bit over
// fixed Lab pairs. Regenerate with go test -run TestBuildGolden -update
// only when a change to the builder's output is intended.
func TestBuildGolden(t *testing.T) {
	got := make(map[string]string)
	entries := 0
	for _, p := range buildGoldenPairs(t) {
		set, err := synopsis.Build(p.DB, p.Query)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, set); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[p.Name] = hex.EncodeToString(sum[:])
		entries += len(set.Entries)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(buildGoldenPath), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.FromSlash(buildGoldenPath))
	if err != nil {
		t.Fatalf("golden file missing (regenerate with go test -run TestBuildGolden -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs built, golden file has %d", len(got), len(want))
	}
	for name, h := range want {
		if got[name] != h {
			t.Errorf("%s: synopsis hash %s, golden %s", name, got[name], h)
		}
	}
	t.Logf("%d pairs, %d entries", len(got), entries)
}
