package tpch

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
	if len(s.Rels) != 8 {
		t.Fatalf("relations = %d, want 8", len(s.Rels))
	}
	arities := map[string]int{
		"region": 3, "nation": 4, "supplier": 7, "part": 9,
		"partsupp": 5, "customer": 8, "orders": 9, "lineitem": 16,
	}
	keys := map[string]int{
		"region": 1, "nation": 1, "supplier": 1, "part": 1,
		"partsupp": 2, "customer": 1, "orders": 1, "lineitem": 2,
	}
	for name, want := range arities {
		def := s.Rel(name)
		if def == nil {
			t.Fatalf("missing relation %s", name)
		}
		if def.Arity() != want {
			t.Fatalf("%s arity = %d, want %d", name, def.Arity(), want)
		}
		if def.KeyLen != keys[name] {
			t.Fatalf("%s key length = %d, want %d", name, def.KeyLen, keys[name])
		}
	}
	if len(s.JoinablePairs()) < 10 {
		t.Fatalf("joinable pairs = %d, want >= 10", len(s.JoinablePairs()))
	}
}

func TestGenerateConsistent(t *testing.T) {
	db := MustGenerate(Config{ScaleFactor: 0.001, Seed: 1})
	if !relation.IsConsistentDB(db) {
		t.Fatal("generated database violates its primary keys")
	}
	if db.NumFacts() < 5000 {
		t.Fatalf("facts = %d, unexpectedly small for SF 0.001", db.NumFacts())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(Config{ScaleFactor: 0.0005, Seed: 7})
	b := MustGenerate(Config{ScaleFactor: 0.0005, Seed: 7})
	if a.NumFacts() != b.NumFacts() {
		t.Fatal("same config produced different sizes")
	}
	if a.String() != b.String() {
		t.Fatal("same config produced different databases")
	}
	c := MustGenerate(Config{ScaleFactor: 0.0005, Seed: 8})
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical databases")
	}
}

func TestGenerateScales(t *testing.T) {
	small := MustGenerate(Config{ScaleFactor: 0.0005, Seed: 1})
	large := MustGenerate(Config{ScaleFactor: 0.002, Seed: 1})
	if large.NumFacts() <= small.NumFacts() {
		t.Fatalf("SF 0.002 (%d facts) not larger than SF 0.0005 (%d facts)",
			large.NumFacts(), small.NumFacts())
	}
}

func TestGenerateRejectsBadSF(t *testing.T) {
	if _, err := Generate(Config{ScaleFactor: 0}); err == nil {
		t.Fatal("SF 0 accepted")
	}
	if _, err := Generate(Config{ScaleFactor: -1}); err == nil {
		t.Fatal("negative SF accepted")
	}
}

// Referential integrity: every foreign key must reference an existing key,
// otherwise the noise generator's join-preserving construction and the
// SQG's join conditions would be meaningless.
func TestForeignKeysResolve(t *testing.T) {
	db := MustGenerate(Config{ScaleFactor: 0.001, Seed: 3})
	s := db.Schema
	for _, fk := range s.FKs {
		from := db.Tables[s.RelIndex(fk.FromRel)]
		to := db.Tables[s.RelIndex(fk.ToRel)]
		// Index target key projections.
		targets := make(map[string]bool, len(to.Tuples))
		for _, tt := range to.Tuples {
			targets[renderProj(tt, fk.ToCols)] = true
		}
		for _, ft := range from.Tuples {
			if !targets[renderProj(ft, fk.FromCols)] {
				t.Fatalf("dangling FK %s%v -> %s%v", fk.FromRel, fk.FromCols, fk.ToRel, fk.ToCols)
			}
		}
	}
}

func renderProj(t relation.Tuple, cols []int) string {
	out := ""
	for _, c := range cols {
		out += fmt.Sprintf("%d|", int64(t[c]))
	}
	return out
}

// Queries over the generated data must join: the paper's whole methodology
// assumes join patterns are present.
func TestJoinsProduceAnswers(t *testing.T) {
	db := MustGenerate(Config{ScaleFactor: 0.001, Seed: 5})
	ev := engine.NewEvaluator(db)
	q := cq.MustParse(
		"Q(n) :- customer(c, n, a, nk, ph, b, seg, cm), orders(o, c, st, tp, d, pr, cl, sp, ocm)",
		db.Dict)
	n, _, err := ev.CountHomomorphismsUpTo(q, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("customer-orders join is empty")
	}
	// Three-way join through lineitem.
	q3 := cq.MustParse(
		"Q() :- orders(o, c, st, tp, d, pr, cl, sp, ocm), lineitem(o, ln, p, s, qy, ep, di, tx, rf, ls, sd, cd, rd, si, sm, lc), part(p, pn, mf, br, ty, sz, cn, rp, pc)",
		db.Dict)
	n3, _, err := ev.CountHomomorphismsUpTo(q3, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if n3 == 0 {
		t.Fatal("orders-lineitem-part join is empty")
	}
}

func TestRowCountRatios(t *testing.T) {
	db := MustGenerate(Config{ScaleFactor: 0.001, Seed: 9})
	count := func(rel string) int {
		return len(db.Tables[db.Schema.RelIndex(rel)].Tuples)
	}
	if count("region") != 5 || count("nation") != 25 {
		t.Fatal("region/nation must have fixed cardinalities")
	}
	if count("partsupp") != 4*count("part") {
		t.Fatalf("partsupp = %d, want 4x part = %d", count("partsupp"), 4*count("part"))
	}
	if count("orders") < count("customer") {
		t.Fatal("orders should outnumber customers")
	}
	// lineitem averages ~4 per order.
	ratio := float64(count("lineitem")) / float64(count("orders"))
	if ratio < 2 || ratio > 6 {
		t.Fatalf("lineitem/orders ratio = %.2f, want ~4", ratio)
	}
}

// Regression: at tiny scale factors the supplier pool is smaller than 4,
// which used to make partsupp collide on its composite key.
func TestGenerateConsistentTinySF(t *testing.T) {
	for _, sf := range []float64{0.0001, 0.0002, 0.0004} {
		db := MustGenerate(Config{ScaleFactor: sf, Seed: 1})
		if !relation.IsConsistentDB(db) {
			t.Fatalf("SF %v: generated database inconsistent", sf)
		}
	}
}

func TestEncodeDateValid(t *testing.T) {
	cases := map[int]int{
		0:    19920101,
		30:   19920131,
		31:   19920201,
		59:   19920229, // 1992 is a leap year
		60:   19920301,
		365:  19921231,
		366:  19930101,
		2556: 19981231,
		2557: 19920101, // wraps
		-1:   19981231, // negative wraps backwards
	}
	for offset, want := range cases {
		if got := encodeDate(offset); got != want {
			t.Errorf("encodeDate(%d) = %d, want %d", offset, got, want)
		}
	}
}

func TestEncodeDateAlwaysValidCalendarDay(t *testing.T) {
	for offset := 0; offset < totalDays; offset++ {
		d := encodeDate(offset)
		y, m, day := d/10000, (d/100)%100, d%100
		if y < 1992 || y > 1998 || m < 1 || m > 12 || day < 1 || day > 31 {
			t.Fatalf("encodeDate(%d) = %d out of range", offset, d)
		}
		maxDay := monthDays[m-1]
		if m == 2 && isLeap(y) {
			maxDay = 29
		}
		if day > maxDay {
			t.Fatalf("encodeDate(%d) = %d: day %d exceeds month length %d", offset, d, day, maxDay)
		}
	}
}

func TestGeneratedDatesValid(t *testing.T) {
	db := MustGenerate(Config{ScaleFactor: 0.0003, Seed: 4})
	oi := db.Schema.RelIndex("orders")
	for _, tt := range db.Tables[oi].Tuples {
		d := int64(tt[4])
		if d < 19920101 || d > 19981231 {
			t.Fatalf("order date %d out of the TPC-H range", d)
		}
	}
	li := db.Schema.RelIndex("lineitem")
	for _, tt := range db.Tables[li].Tuples {
		ship, commit, receipt := int64(tt[10]), int64(tt[11]), int64(tt[12])
		for _, d := range []int64{ship, commit, receipt} {
			m := (d / 100) % 100
			if m < 1 || m > 12 {
				t.Fatalf("lineitem date %d has invalid month", d)
			}
		}
	}
}
