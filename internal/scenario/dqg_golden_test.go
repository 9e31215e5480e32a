package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cqabench/internal/qgen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// dqgGoldenPath holds the SHA-256 of the rendered qgen.DQG results of
// every pinned pair, keyed by pair name.
const dqgGoldenPath = "testdata/dqg_golden.json"

// dqgGoldenTargets are the balance targets 0.1, 0.2, ..., 1.0.
func dqgGoldenTargets() []float64 {
	ts := make([]float64, 10)
	for k := range ts {
		ts[k] = float64(k+1) / 10
	}
	return ts
}

// dqgGoldenLab is the pinned Lab: SF 0.0002, seed 1, three base queries
// per join level and the default 80 DQG iterations.
func dqgGoldenLab(t testing.TB) *Lab {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ScaleFactor = 0.0002
	cfg.QueriesPerJoin = 3
	lab, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

// renderDQG writes one pair's results as text: per target the query,
// the target and the exact bits of the achieved balance.
func renderDQG(lab *Lab, res []qgen.DQGResult) string {
	var b strings.Builder
	for _, r := range res {
		fmt.Fprintf(&b, "%s\t%v\t%016x\n", r.Query.Render(lab.base.Dict), r.Target, math.Float64bits(r.Balance))
	}
	return b.String()
}

// TestDQGGolden pins the dynamic query generator's output bit for bit:
// for joins 1–3 × base query 0–2 × noise {0.2, 0.6, 1.0}, the query,
// target and balance bits DQG returns for targets 0.1 to 1.0. Base
// queries (joins 2, index 1) and (joins 3, index 1) are left out: their
// bodies have the most consistent homomorphisms, and their six pairs
// would take most of the test's time. Regenerate with
// go test -run TestDQGGolden -update only when a change to the
// generated queries is intended.
func TestDQGGolden(t *testing.T) {
	lab := dqgGoldenLab(t)
	got := make(map[string]string)
	for j := 1; j <= 3; j++ {
		for i := 0; i < 3; i++ {
			if i == 1 && j >= 2 {
				continue
			}
			base, err := lab.BaseQuery(j, i)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []float64{0.2, 0.6, 1.0} {
				name := fmt.Sprintf("j%d/q%d/p%.1f", j, i, p)
				db, err := lab.NoisyDB(j, i, p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := qgen.DQG(db, base, dqgGoldenTargets(), qgen.DQGConfig{
					Iterations: lab.cfg.DQGIterations,
					Seed:       lab.cfg.Seed + uint64(10*j+i),
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sum := sha256.Sum256([]byte(renderDQG(lab, res)))
				got[name] = hex.EncodeToString(sum[:])
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(dqgGoldenPath), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.FromSlash(dqgGoldenPath))
	if err != nil {
		t.Fatalf("golden file missing (regenerate with go test -run TestDQGGolden -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs generated, golden file has %d", len(got), len(want))
	}
	for name, h := range want {
		if got[name] != h {
			t.Errorf("%s: DQG hash %s, golden %s", name, got[name], h)
		}
	}
}

var dqgSink []qgen.DQGResult

// BenchmarkDQGManyTuples times qgen.DQG on perfbench's many-tuples pair:
// base query (joins 1, index 0) of the pinned Lab over its noise-0.4
// database, target balance 1, with the call Lab.BalancedQuery makes.
func BenchmarkDQGManyTuples(b *testing.B) {
	const j, i, p, target = 1, 0, 0.4, 1.0
	lab := dqgGoldenLab(b)
	base, err := lab.BaseQuery(j, i)
	if err != nil {
		b.Fatal(err)
	}
	db, err := lab.NoisyDB(j, i, p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := qgen.DQGConfig{
		Iterations: lab.cfg.DQGIterations,
		Seed:       lab.cfg.Seed + uint64(target*1000) + uint64(j),
	}
	want, _, err := lab.BalancedQuery(j, i, p, target)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		dqgSink, err = qgen.DQG(db, base, []float64{target}, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := dqgSink[0].Query.String(); got != want.String() {
		b.Fatalf("timed call generated %s, Lab.BalancedQuery %s", got, want)
	}
}
