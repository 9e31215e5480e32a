package relation

import (
	"math/big"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func employeeSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]RelDef{
		{Name: "Employee", Attrs: []string{"id", "name", "dept"}, KeyLen: 1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// exampleDB builds the paper's Example 1.1 database.
func exampleDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase(employeeSchema(t))
	db.MustInsert("Employee", 1, "Bob", "HR")
	db.MustInsert("Employee", 1, "Bob", "IT")
	db.MustInsert("Employee", 2, "Alice", "IT")
	db.MustInsert("Employee", 2, "Tim", "IT")
	return db
}

func TestDictInterning(t *testing.T) {
	d := NewDict()
	a := d.String("Bob")
	b := d.String("Bob")
	c := d.String("Alice")
	if a != b {
		t.Fatal("same string interned to different values")
	}
	if a == c {
		t.Fatal("different strings interned to same value")
	}
	if d.Render(a) != "Bob" || d.Render(c) != "Alice" {
		t.Fatal("render round-trip failed")
	}
}

func TestDictIntDirect(t *testing.T) {
	d := NewDict()
	if d.Int(42) != Value(42) {
		t.Fatal("small int not stored inline")
	}
	if d.Render(Value(42)) != "42" {
		t.Fatal("int render failed")
	}
	if len(d.strs) != 0 {
		t.Fatal("small int should not intern")
	}
	// Negative and huge ints round-trip via interning.
	v := d.Int(-7)
	if d.Render(v) != "-7" {
		t.Fatalf("negative int render = %q", d.Render(v))
	}
	big := d.Int(1 << 62)
	if d.Render(big) != "4611686018427387904" {
		t.Fatalf("large int render = %q", d.Render(big))
	}
}

func TestDictLookup(t *testing.T) {
	d := NewDict()
	if _, ok := d.byStr["x"]; ok {
		t.Fatal("lookup of absent string succeeded")
	}
	v := d.String("x")
	got, err := d.Of("x")
	if err != nil || got != v || len(d.strs) != 1 {
		t.Fatal("lookup of present string failed")
	}
}

func TestDictOfTypes(t *testing.T) {
	d := NewDict()
	for _, x := range []any{1, int32(2), int64(3), "s", Value(9)} {
		if _, err := d.Of(x); err != nil {
			t.Fatalf("Of(%T) errored: %v", x, err)
		}
	}
	if _, err := d.Of(3.14); err == nil {
		t.Fatal("Of(float64) should error")
	}
}

func TestTupleOps(t *testing.T) {
	a := Tuple{1, 2, 3}
	b := Tuple{1, 2, 3}
	c := Tuple{1, 2}
	if !a.Equal(b) || a.Equal(c) || c.Equal(a) {
		t.Fatal("Equal misbehaves")
	}
	cl := slices.Clone(a)
	cl[0] = 9
	if a[0] == 9 {
		t.Fatal("Clone aliases")
	}
	if p := project(a, []int{2, 0}); !p.Equal(Tuple{3, 1}) {
		t.Fatalf("Project = %v", p)
	}
	if !c.Less(a) || a.Less(c) {
		t.Fatal("Less prefix ordering wrong")
	}
	if !a.Less(Tuple{1, 2, 4}) {
		t.Fatal("Less lexicographic ordering wrong")
	}
}

func TestSchemaValidation(t *testing.T) {
	cases := []struct {
		name string
		rels []RelDef
		fks  []ForeignKey
	}{
		{"dup rel", []RelDef{{Name: "R", Attrs: []string{"a"}}, {Name: "R", Attrs: []string{"a"}}}, nil},
		{"empty name", []RelDef{{Name: "", Attrs: []string{"a"}}}, nil},
		{"key too long", []RelDef{{Name: "R", Attrs: []string{"a"}, KeyLen: 2}}, nil},
		{"zero arity", []RelDef{{Name: "R"}}, nil},
		{"dup attr", []RelDef{{Name: "R", Attrs: []string{"a", "a"}}}, nil},
		{"fk unknown rel", []RelDef{{Name: "R", Attrs: []string{"a"}}}, []ForeignKey{{FromRel: "X", FromCols: []int{0}, ToRel: "R", ToCols: []int{0}}}},
		{"fk col range", []RelDef{{Name: "R", Attrs: []string{"a"}}}, []ForeignKey{{FromRel: "R", FromCols: []int{5}, ToRel: "R", ToCols: []int{0}}}},
		{"fk mismatch", []RelDef{{Name: "R", Attrs: []string{"a"}}}, []ForeignKey{{FromRel: "R", FromCols: []int{0}, ToRel: "R", ToCols: []int{}}}},
	}
	for _, c := range cases {
		if _, err := NewSchema(c.rels, c.fks); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSchemaLookups(t *testing.T) {
	s := employeeSchema(t)
	if s.RelIndex("Employee") != 0 || s.RelIndex("Nope") != -1 {
		t.Fatal("RelIndex wrong")
	}
	r := s.Rel("Employee")
	if r == nil || r.Arity() != 3 || r.AttrIndex("dept") != 2 || r.AttrIndex("zzz") != -1 {
		t.Fatal("Rel/AttrIndex wrong")
	}
	if s.Rel("Nope") != nil {
		t.Fatal("Rel for unknown name should be nil")
	}
}

func TestJoinablePairs(t *testing.T) {
	s := MustSchema([]RelDef{
		{Name: "A", Attrs: []string{"x", "y"}, KeyLen: 1},
		{Name: "B", Attrs: []string{"u", "v"}, KeyLen: 1},
	}, []ForeignKey{{FromRel: "A", FromCols: []int{1}, ToRel: "B", ToCols: []int{0}}})
	ps := s.JoinablePairs()
	if len(ps) != 1 || ps[0] != (JoinablePair{"A", 1, "B", 0}) {
		t.Fatalf("JoinablePairs = %v", ps)
	}
}

func TestInsertDeduplicates(t *testing.T) {
	db := exampleDB(t)
	if n := db.NumFacts(); n != 4 {
		t.Fatalf("NumFacts = %d, want 4", n)
	}
	// Re-inserting an existing fact is a no-op.
	db.MustInsert("Employee", 1, "Bob", "HR")
	if n := db.NumFacts(); n != 4 {
		t.Fatalf("after dup insert NumFacts = %d, want 4", n)
	}
	fresh, err := db.InsertTuple("Employee", Tuple{db.Dict.Int(1), db.Dict.String("Bob"), db.Dict.String("HR")})
	if err != nil || fresh {
		t.Fatalf("dup InsertTuple fresh=%v err=%v", fresh, err)
	}
}

func TestInsertErrors(t *testing.T) {
	db := exampleDB(t)
	if err := db.Insert("Nope", 1); err == nil {
		t.Fatal("insert into unknown relation should error")
	}
	if err := db.Insert("Employee", 1, "Bob"); err == nil {
		t.Fatal("arity mismatch should error")
	}
	if err := db.Insert("Employee", 1, "Bob", 3.5); err == nil {
		t.Fatal("bad constant type should error")
	}
}

// TestContains checks membership through InsertTuple's duplicate check.
func TestContains(t *testing.T) {
	db := exampleDB(t)
	tup := Tuple{db.Dict.Int(1), db.Dict.String("Bob"), db.Dict.String("HR")}
	if fresh, err := db.InsertTuple("Employee", tup); err != nil || fresh {
		t.Fatalf("present fact: fresh=%v err=%v", fresh, err)
	}
	tup2 := Tuple{db.Dict.Int(9), db.Dict.String("Bob"), db.Dict.String("HR")}
	if fresh, err := db.InsertTuple("Employee", tup2); err != nil || !fresh {
		t.Fatalf("absent fact: fresh=%v err=%v", fresh, err)
	}
	if _, err := db.InsertTuple("Nope", tup); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := db.InsertTuple("Employee", tup[:2]); err == nil {
		t.Fatal("short tuple accepted")
	}
}

func TestRenderFact(t *testing.T) {
	db := exampleDB(t)
	got := db.RenderFact(FactRef{0, 0})
	if got != "Employee(1, Bob, HR)" {
		t.Fatalf("RenderFact = %q", got)
	}
}

func TestBlocksExample(t *testing.T) {
	db := exampleDB(t)
	bi := BuildBlocks(db)
	if len(bi.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(bi.Blocks))
	}
	for i := range bi.Blocks {
		if bi.Blocks[i].Size() != 2 {
			t.Fatalf("block %d size = %d, want 2", i, bi.Blocks[i].Size())
		}
	}
	if bi.IsConsistent() {
		t.Fatal("example DB should be inconsistent")
	}
	if got := bi.NumRepairs(); got.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("NumRepairs = %v, want 4", got)
	}
	if len(bi.NonSingletonBlocks()) != 2 {
		t.Fatal("NonSingletonBlocks wrong")
	}
	if n := len(bi.NonSingletonBlocks()); n != len(bi.Blocks) {
		t.Fatalf("%d of %d blocks are non-singletons, want all", n, len(bi.Blocks))
	}
}

func TestBlockMembership(t *testing.T) {
	db := exampleDB(t)
	bi := BuildBlocks(db)
	f0 := FactRef{0, 0} // (1,Bob,HR)
	f1 := FactRef{0, 1} // (1,Bob,IT)
	f2 := FactRef{0, 2} // (2,Alice,IT)
	if bi.BlockID(f0) != bi.BlockID(f1) {
		t.Fatal("facts with same key should share a block")
	}
	if bi.BlockID(f0) == bi.BlockID(f2) {
		t.Fatal("facts with different keys should not share a block")
	}
	if bi.MemberIndex(f0) != 0 || bi.MemberIndex(f1) != 1 {
		t.Fatal("member indexes should follow row order")
	}
	if bi.BlockOf(f2).Size() != 2 {
		t.Fatal("BlockOf size wrong")
	}
}

func TestSatisfiesKeys(t *testing.T) {
	db := exampleDB(t)
	bi := BuildBlocks(db)
	if !bi.SatisfiesKeys([]FactRef{{0, 0}, {0, 2}}) {
		t.Fatal("conflict-free set rejected")
	}
	if bi.SatisfiesKeys([]FactRef{{0, 0}, {0, 1}}) {
		t.Fatal("conflicting set accepted")
	}
	// Repeated fact is fine (sets, not multisets).
	if !bi.SatisfiesKeys([]FactRef{{0, 0}, {0, 0}}) {
		t.Fatal("repeated fact rejected")
	}
	if !bi.SatisfiesKeys(nil) || !bi.SatisfiesKeys([]FactRef{{0, 3}}) {
		t.Fatal("trivial sets rejected")
	}
}

func TestKeylessRelationNeverConflicts(t *testing.T) {
	s := MustSchema([]RelDef{{Name: "R", Attrs: []string{"a", "b"}, KeyLen: 0}}, nil)
	db := NewDatabase(s)
	db.MustInsert("R", 1, 1)
	db.MustInsert("R", 1, 2)
	db.MustInsert("R", 1, 3)
	bi := BuildBlocks(db)
	if !bi.IsConsistent() {
		t.Fatal("keyless relation reported inconsistent")
	}
	if len(bi.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3 singletons", len(bi.Blocks))
	}
}

func TestConsistentDB(t *testing.T) {
	db := NewDatabase(employeeSchema(t))
	db.MustInsert("Employee", 1, "Bob", "HR")
	db.MustInsert("Employee", 2, "Alice", "IT")
	if !IsConsistentDB(db) {
		t.Fatal("consistent DB reported inconsistent")
	}
	bi := BuildBlocks(db)
	if len(bi.NonSingletonBlocks()) != 0 {
		t.Fatal("consistent DB has a non-singleton block")
	}
	if bi.NumRepairs().Cmp(big.NewInt(1)) != 0 {
		t.Fatal("consistent DB should have exactly one repair")
	}
}

func TestCloneIndependence(t *testing.T) {
	db := exampleDB(t)
	c := db.Clone()
	c.MustInsert("Employee", 3, "Eve", "HR")
	if db.NumFacts() != 4 || c.NumFacts() != 5 {
		t.Fatal("clone not independent")
	}
	// Dedup state must be cloned too.
	c2 := db.Clone()
	c2.MustInsert("Employee", 1, "Bob", "HR") // dup: must be ignored
	if c2.NumFacts() != 4 {
		t.Fatal("clone lost dedup state")
	}
}

func TestRestrict(t *testing.T) {
	db := exampleDB(t)
	sub := db.Restrict([]FactRef{{0, 1}, {0, 2}})
	if sub.NumFacts() != 2 {
		t.Fatalf("restricted NumFacts = %d", sub.NumFacts())
	}
	if !IsConsistentDB(sub) {
		t.Fatal("restriction to one fact per block should be consistent")
	}
}

func TestAllFactsDeterministic(t *testing.T) {
	db := exampleDB(t)
	fs := allFacts(db)
	if len(fs) != 4 {
		t.Fatalf("allFacts len = %d", len(fs))
	}
	if !sort.SliceIsSorted(fs, func(i, j int) bool { return fs[i].Less(fs[j]) }) {
		t.Fatal("allFacts not sorted")
	}
}

// Property: for arbitrary small databases, every fact lies in exactly one
// block, blocks partition the facts, and NumRepairs equals the product of
// block sizes.
func TestBlockPartitionProperty(t *testing.T) {
	s := MustSchema([]RelDef{{Name: "R", Attrs: []string{"k", "v"}, KeyLen: 1}}, nil)
	f := func(pairs []struct{ K, V uint8 }) bool {
		db := NewDatabase(s)
		for _, p := range pairs {
			db.MustInsert("R", int(p.K%6), int(p.V%6))
		}
		bi := BuildBlocks(db)
		total := 0
		prod := big.NewInt(1)
		for i := range bi.Blocks {
			total += bi.Blocks[i].Size()
			prod.Mul(prod, big.NewInt(int64(bi.Blocks[i].Size())))
		}
		if total != db.NumFacts() {
			return false
		}
		if prod.Cmp(bi.NumRepairs()) != 0 {
			return false
		}
		// Every fact's BlockOf contains it.
		for _, fr := range allFacts(db) {
			b := bi.BlockOf(fr)
			found := false
			for _, g := range b.Facts {
				if g == fr {
					found = true
				}
			}
			if !found {
				return false
			}
			if b.Facts[bi.MemberIndex(fr)] != fr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaString(t *testing.T) {
	s := employeeSchema(t)
	if got := s.String(); got != "Employee(*id, name, dept)\n" {
		t.Fatalf("Schema.String = %q", got)
	}
}

func TestDatabaseString(t *testing.T) {
	db := NewDatabase(employeeSchema(t))
	db.MustInsert("Employee", 1, "Bob", "HR")
	if got := db.String(); got != "Employee(1, Bob, HR)\n" {
		t.Fatalf("Database.String = %q", got)
	}
}

func TestMeasureInconsistency(t *testing.T) {
	db := exampleDB(t)
	rep := MeasureInconsistency(db)
	if rep.Facts != 4 || rep.ConflictingFacts != 4 {
		t.Fatalf("facts: %+v", rep)
	}
	if rep.Blocks != 2 || rep.ConflictBlocks != 2 || rep.MaxBlockSize != 2 {
		t.Fatalf("blocks: %+v", rep)
	}
	if rep.BlockNoise() != 1 || rep.FactNoise() != 1 {
		t.Fatalf("noise: %v %v", rep.BlockNoise(), rep.FactNoise())
	}
	if rep.Log2Repairs != 2 { // 4 repairs
		t.Fatalf("log2 repairs = %v", rep.Log2Repairs)
	}
	if rep.BlockSizeHistogram[2] != 2 {
		t.Fatalf("histogram = %v", rep.BlockSizeHistogram)
	}
	if rep.PerRelation[0].ConflictBlocks != 2 || rep.PerRelation[0].FactsInConflict != 4 {
		t.Fatalf("per relation: %+v", rep.PerRelation[0])
	}
	out := rep.String()
	for _, want := range []string{"facts: 4", "log2(repairs): 2.0", "2:2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureInconsistencyConsistent(t *testing.T) {
	db := NewDatabase(employeeSchema(t))
	db.MustInsert("Employee", 1, "Bob", "HR")
	rep := MeasureInconsistency(db)
	if rep.BlockNoise() != 0 || rep.FactNoise() != 0 || rep.Log2Repairs != 0 {
		t.Fatalf("consistent DB: %+v", rep)
	}
	empty := MeasureInconsistency(NewDatabase(employeeSchema(t)))
	if empty.BlockNoise() != 0 || empty.FactNoise() != 0 {
		t.Fatal("empty DB noise nonzero")
	}
}

// Property: two facts share a block iff they share a key value.
func TestKeyValueBlockEquivalenceProperty(t *testing.T) {
	s := MustSchema([]RelDef{
		{Name: "R", Attrs: []string{"k1", "k2", "v"}, KeyLen: 2},
	}, nil)
	f := func(rows []struct{ A, B, V uint8 }) bool {
		if len(rows) > 10 {
			rows = rows[:10]
		}
		db := NewDatabase(s)
		for _, r := range rows {
			db.MustInsert("R", int(r.A%3), int(r.B%3), int(r.V%5))
		}
		bi := BuildBlocks(db)
		facts := allFacts(db)
		for i := range facts {
			for j := range facts {
				sameBlock := bi.BlockID(facts[i]) == bi.BlockID(facts[j])
				sameKey := db.KeyValue(facts[i]) == db.KeyValue(facts[j])
				if sameBlock != sameKey {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// project returns the projection of t over positions (0-based).
func project(t Tuple, positions []int) Tuple {
	p := make(Tuple, len(positions))
	for i, pos := range positions {
		p[i] = t[pos]
	}
	return p
}

// allFacts returns every FactRef of db in table then row order.
func allFacts(db *Database) []FactRef {
	out := make([]FactRef, 0, db.NumFacts())
	for ri, tb := range db.Tables {
		for row := range tb.Tuples {
			out = append(out, FactRef{int32(ri), int32(row)})
		}
	}
	return out
}
