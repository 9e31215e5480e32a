package qgen

import (
	"fmt"
	"strings"
	"testing"

	"cqabench/internal/engine"
	"cqabench/internal/mt"
	"cqabench/internal/noise"
	"cqabench/internal/relation"
	"cqabench/internal/tpch"
)

func tpchDB(t *testing.T) *relation.Database {
	t.Helper()
	return tpch.MustGenerate(tpch.Config{ScaleFactor: 0.0003, Seed: 1})
}

func TestBuildConstPool(t *testing.T) {
	db := tpchDB(t)
	pool := BuildConstPool(db, 16)
	if len(pool) == 0 {
		t.Fatal("empty pool")
	}
	vals, ok := pool[AttrRef{"region", 1}]
	if !ok || len(vals) != 5 {
		t.Fatalf("region names pool = %v", vals)
	}
	for _, vs := range pool {
		if len(vs) > 16 {
			t.Fatalf("pool entry exceeds cap: %d", len(vs))
		}
	}
}

func TestSQGStaticParameters(t *testing.T) {
	db := tpchDB(t)
	pool := BuildConstPool(db, 16)
	for joins := 0; joins <= 5; joins++ {
		q, err := SQG(db.Schema, pool, SQGConfig{
			Joins: joins, Constants: 2, Projection: 1, Seed: uint64(joins + 1),
		})
		if err != nil {
			t.Fatalf("j=%d: %v", joins, err)
		}
		if got := q.NumJoins(); got != joins {
			t.Fatalf("j=%d: NumJoins = %d\n%s", joins, got, q)
		}
		if got := q.NumConstants(); got != 2 {
			t.Fatalf("j=%d: NumConstants = %d", joins, got)
		}
		rels := make(map[string]bool, len(q.Atoms))
		for _, a := range q.Atoms {
			if rels[a.Rel] {
				t.Fatalf("j=%d: generated self-join on %s", joins, a.Rel)
			}
			rels[a.Rel] = true
		}
		if err := q.Validate(db.Schema); err != nil {
			t.Fatal(err)
		}
		// Projection 1 ⇒ all variables projected.
		if len(q.Out) != q.NumVars {
			t.Fatalf("j=%d: projected %d of %d vars at p=1", joins, len(q.Out), q.NumVars)
		}
	}
}

func TestSQGProjectionZero(t *testing.T) {
	db := tpchDB(t)
	pool := BuildConstPool(db, 16)
	q, err := SQG(db.Schema, pool, SQGConfig{Joins: 2, Constants: 0, Projection: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsBoolean() {
		t.Fatalf("p=0 should give Boolean query, got %s", q)
	}
}

func TestSQGErrors(t *testing.T) {
	db := tpchDB(t)
	pool := BuildConstPool(db, 4)
	if _, err := SQG(db.Schema, pool, SQGConfig{Joins: -1}); err == nil {
		t.Fatal("negative joins accepted")
	}
	if _, err := SQG(db.Schema, pool, SQGConfig{Projection: 2}); err == nil {
		t.Fatal("projection > 1 accepted")
	}
	noFK := relation.MustSchema([]relation.RelDef{
		{Name: "R", Attrs: []string{"a"}, KeyLen: 1},
	}, nil)
	if _, err := SQG(noFK, ConstPool{}, SQGConfig{Joins: 1}); err == nil {
		t.Fatal("join generation without FK graph accepted")
	}
}

func TestSQGDeterministic(t *testing.T) {
	db := tpchDB(t)
	pool := BuildConstPool(db, 16)
	cfg := SQGConfig{Joins: 3, Constants: 2, Projection: 0.5, Seed: 9}
	a, err := SQG(db.Schema, pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SQG(db.Schema, pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render(db.Dict) != b.Render(db.Dict) {
		t.Fatal("same seed gave different queries")
	}
}

func TestSQGNonEmpty(t *testing.T) {
	db := tpchDB(t)
	pool := BuildConstPool(db, 16)
	q, err := SQGNonEmpty(db, pool, SQGConfig{Joins: 2, Constants: 1, Projection: 1, Seed: 5}, 50)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := engine.NewEvaluator(db).HasAnswer(q.Boolean(), nil)
	if err != nil || !ok {
		t.Fatalf("returned query is empty: %v", err)
	}
}

func TestDQGOnTPCH(t *testing.T) {
	db := tpchDB(t)
	pool := BuildConstPool(db, 16)
	q, err := SQGNonEmpty(db, pool, SQGConfig{Joins: 1, Constants: 1, Projection: 1, Seed: 7}, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DQG(db, q, []float64{0.3, 0.8}, DQGConfig{Iterations: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if err := r.Query.Validate(db.Schema); err != nil {
			t.Fatal(err)
		}
	}
}

// fmtDistinct counts distinct projections with one formatted string key
// per homomorphism: the reference projections.count must agree with.
func fmtDistinct(assigns [][]relation.Value, vars []int) int {
	distinct := make(map[string]bool, len(assigns))
	var b strings.Builder
	for _, a := range assigns {
		b.Reset()
		for _, v := range vars {
			fmt.Fprintf(&b, "%d|", int64(a[v]))
		}
		distinct[b.String()] = true
	}
	return len(distinct)
}

// TestProjectionCountMatchesStringKeys checks the refinement count
// against fmtDistinct on random variable subsets, in random order, of a
// noisy TPC-H pair.
func TestProjectionCountMatchesStringKeys(t *testing.T) {
	base := tpchDB(t)
	q, err := SQGNonEmpty(base, BuildConstPool(base, 16), SQGConfig{Joins: 2, Constants: 1, Projection: 1, Seed: 7}, 50)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := noise.Apply(base, q, noise.Config{P: 0.6, MinBlock: 2, MaxBlock: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	body := q.Boolean()
	assigns, images, err := consistentHoms(db, body)
	if err != nil {
		t.Fatal(err)
	}
	proj := newProjections(assigns, body.NumVars)
	vars := body.Vars()
	src := mt.New(11)
	counts := make(map[int]bool)
	for trial := 0; trial < 60; trial++ {
		var subset []int
		for _, v := range vars {
			if src.Intn(2) == 0 {
				subset = append(subset, v)
			}
		}
		for k := len(subset) - 1; k > 0; k-- {
			l := src.Intn(k + 1)
			subset[k], subset[l] = subset[l], subset[k]
		}
		got, want := proj.count(subset), fmtDistinct(assigns, subset)
		if got != want {
			t.Fatalf("vars %v: refinement counts %d projections, string keys %d", subset, got, want)
		}
		counts[got] = true
	}
	if got, want := proj.count(vars), fmtDistinct(assigns, vars); got != want {
		t.Fatalf("all vars: refinement counts %d projections, string keys %d", got, want)
	}
	if len(counts) < 3 {
		t.Fatalf("subsets gave only %d distinct counts: the pair does not exercise refinement", len(counts))
	}
	t.Logf("%d homomorphisms, %d images, %d vars, %d distinct counts", len(assigns), images, len(vars), len(counts))
}
