package tpcds

import (
	"fmt"
	"math"
	"testing"

	"cqabench/internal/cq"
	"cqabench/internal/engine"
	"cqabench/internal/relation"
)

func TestSchemaShape(t *testing.T) {
	s := Schema()
	if len(s.Rels) != 11 {
		t.Fatalf("relations = %d, want 11", len(s.Rels))
	}
	if s.Rel("store_sales").KeyLen != 2 || s.Rel("catalog_sales").KeyLen != 2 {
		t.Fatal("fact tables must have composite keys")
	}
	for _, dim := range []string{"date_dim", "item", "customer", "customer_address", "store", "warehouse", "ship_mode", "promotion", "call_center"} {
		def := s.Rel(dim)
		if def == nil || def.KeyLen != 1 {
			t.Fatalf("dimension %s missing or mis-keyed", dim)
		}
	}
	if len(s.JoinablePairs()) < 12 {
		t.Fatalf("joinable pairs = %d", len(s.JoinablePairs()))
	}
}

func TestGenerateConsistentAndDeterministic(t *testing.T) {
	a := MustGenerate(Config{ScaleFactor: 0.0005, Seed: 3})
	if !relation.IsConsistentDB(a) {
		t.Fatal("generated database inconsistent")
	}
	b := MustGenerate(Config{ScaleFactor: 0.0005, Seed: 3})
	if a.String() != b.String() {
		t.Fatal("generation not deterministic")
	}
}

func TestGenerateRejectsBadSF(t *testing.T) {
	if _, err := Generate(Config{ScaleFactor: 0}); err == nil {
		t.Fatal("SF 0 accepted")
	}
}

func TestForeignKeysResolve(t *testing.T) {
	db := MustGenerate(Config{ScaleFactor: 0.0005, Seed: 5})
	s := db.Schema
	for _, fk := range s.FKs {
		from := db.Tables[s.RelIndex(fk.FromRel)]
		to := db.Tables[s.RelIndex(fk.ToRel)]
		targets := make(map[string]bool, len(to.Tuples))
		for _, tt := range to.Tuples {
			targets[proj(tt, fk.ToCols)] = true
		}
		for _, ft := range from.Tuples {
			if !targets[proj(ft, fk.FromCols)] {
				t.Fatalf("dangling FK %s%v -> %s%v", fk.FromRel, fk.FromCols, fk.ToRel, fk.ToCols)
			}
		}
	}
}

func proj(t relation.Tuple, cols []int) string {
	out := ""
	for _, c := range cols {
		out += fmt.Sprintf("%d|", int64(t[c]))
	}
	return out
}

func TestSnowflakeJoin(t *testing.T) {
	db := MustGenerate(Config{ScaleFactor: 0.0005, Seed: 7})
	ev := engine.NewEvaluator(db)
	q := cq.MustParse(
		"Q(cat) :- store_sales(i, tk, d, c, st, pr, qt, sp), item(i, id, bid, br, cl, cid, cat, cp, mg), date_dim(d, y, m, dom, qoy, dn)",
		db.Dict)
	n, _, err := ev.CountHomomorphismsUpTo(q, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("store_sales-item-date_dim join is empty")
	}
}

func TestFactTableKeysAreComposite(t *testing.T) {
	db := MustGenerate(Config{ScaleFactor: 0.0005, Seed: 9})
	// Two store_sales rows can share an item (first key attr) as long as
	// ticket numbers differ; the generator assigns distinct tickets, so
	// the table is consistent.
	bi := relation.BuildBlocks(db)
	if !bi.IsConsistent() {
		t.Fatal("fact tables inconsistent under composite keys")
	}
}
