package relation

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// FactRef identifies a fact within a Database by relation index and row
// index. It is the machine-word fact identity every other package (engine,
// synopsis, repair) uses.
type FactRef struct {
	Rel int32
	Row int32
}

// Less orders FactRefs relation-major.
func (f FactRef) Less(g FactRef) bool {
	if f.Rel != g.Rel {
		return f.Rel < g.Rel
	}
	return f.Row < g.Row
}

// FactsKey encodes a fact sequence as a map key of 8 bytes per fact.
// Equal keys mean equal sequences, so a homomorphic image, which the
// engine hands over sorted, is keyed by its set of facts.
func FactsKey(facts []FactRef) string {
	var b strings.Builder
	b.Grow(8 * len(facts))
	var buf [8]byte
	for _, f := range facts {
		binary.LittleEndian.PutUint32(buf[:4], uint32(f.Rel))
		binary.LittleEndian.PutUint32(buf[4:], uint32(f.Row))
		b.Write(buf[:])
	}
	return b.String()
}

// Table holds the facts of one relation.
type Table struct {
	Def    *RelDef
	Tuples []Tuple
}

// Database is a finite set of facts over a schema. Tables are parallel to
// Schema.Rels. Duplicate tuples within a relation are rejected on insert
// (a database is a set of facts).
type Database struct {
	Schema *Schema
	Dict   *Dict
	Tables []*Table

	dedup []map[string]int32 // per relation: encoded tuple -> row
}

// NewDatabase returns an empty database over the schema with a fresh Dict.
func NewDatabase(s *Schema) *Database {
	db := &Database{
		Schema: s,
		Dict:   NewDict(),
		Tables: make([]*Table, len(s.Rels)),
		dedup:  make([]map[string]int32, len(s.Rels)),
	}
	for i := range s.Rels {
		db.Tables[i] = &Table{Def: &s.Rels[i]}
		db.dedup[i] = make(map[string]int32)
	}
	return db
}

// encodeTuple produces a hashable byte encoding of vals[0:n].
func encodeTuple(vals []Value, n int) string {
	var b strings.Builder
	b.Grow(n * 9)
	for i := 0; i < n; i++ {
		v := uint64(vals[i])
		var buf [8]byte
		for k := 0; k < 8; k++ {
			buf[k] = byte(v >> (8 * k))
		}
		b.Write(buf[:])
	}
	return b.String()
}

// InsertTuple adds a fact with pre-encoded values. It reports whether the
// fact was new (false means it was already present) and errors on arity
// mismatch or unknown relation.
func (db *Database) InsertTuple(rel string, t Tuple) (bool, error) {
	ri := db.Schema.RelIndex(rel)
	if ri < 0 {
		return false, fmt.Errorf("relation: unknown relation %q", rel)
	}
	def := &db.Schema.Rels[ri]
	if len(t) != def.Arity() {
		return false, fmt.Errorf("relation: %s expects arity %d, got %d", rel, def.Arity(), len(t))
	}
	key := encodeTuple(t, len(t))
	if _, dup := db.dedup[ri][key]; dup {
		return false, nil
	}
	db.dedup[ri][key] = int32(len(db.Tables[ri].Tuples))
	db.Tables[ri].Tuples = append(db.Tables[ri].Tuples, t)
	return true, nil
}

// Insert adds a fact from Go values (ints, strings, Values).
func (db *Database) Insert(rel string, vals ...any) error {
	t := make(Tuple, len(vals))
	for i, x := range vals {
		v, err := db.Dict.Of(x)
		if err != nil {
			return fmt.Errorf("relation: %s arg %d: %w", rel, i, err)
		}
		t[i] = v
	}
	_, err := db.InsertTuple(rel, t)
	return err
}

// MustInsert is Insert but panics on error; for tests and examples.
func (db *Database) MustInsert(rel string, vals ...any) {
	if err := db.Insert(rel, vals...); err != nil {
		panic(err)
	}
}

// Fact returns the tuple of a FactRef.
func (db *Database) Fact(f FactRef) Tuple {
	return db.Tables[f.Rel].Tuples[f.Row]
}

// NumFacts returns the total number of facts.
func (db *Database) NumFacts() int {
	n := 0
	for _, t := range db.Tables {
		n += len(t.Tuples)
	}
	return n
}

// RenderFact formats a fact for display.
func (db *Database) RenderFact(f FactRef) string {
	def := db.Tables[f.Rel].Def
	t := db.Fact(f)
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = db.Dict.Render(v)
	}
	return def.Name + "(" + strings.Join(parts, ", ") + ")"
}

// KeyValue returns the paper's key_Σ(α): the relation name plus the key
// projection of the fact (whole tuple when the relation has no key).
func (db *Database) KeyValue(f FactRef) string {
	def := db.Tables[f.Rel].Def
	t := db.Fact(f)
	k := def.KeyLen
	if k == 0 {
		k = len(t)
	}
	return def.Name + "\x00" + encodeTuple(t, k)
}

// Clone returns a deep copy of the database sharing the schema but with an
// independent Dict-compatible state (the Dict itself is shared: Values are
// stable identifiers, and clones only ever add facts, never constants that
// would conflict).
func (db *Database) Clone() *Database {
	c := &Database{
		Schema: db.Schema,
		Dict:   db.Dict,
		Tables: make([]*Table, len(db.Tables)),
		dedup:  make([]map[string]int32, len(db.Tables)),
	}
	for i, tb := range db.Tables {
		nt := &Table{Def: tb.Def, Tuples: make([]Tuple, len(tb.Tuples))}
		copy(nt.Tuples, tb.Tuples)
		c.Tables[i] = nt
		c.dedup[i] = make(map[string]int32, len(db.dedup[i]))
		for k, v := range db.dedup[i] {
			c.dedup[i][k] = v
		}
	}
	return c
}

// Restrict returns a new database containing only the facts in keep.
// Used by repair enumeration.
func (db *Database) Restrict(keep []FactRef) *Database {
	c := NewDatabase(db.Schema)
	c.Dict = db.Dict
	sorted := make([]FactRef, len(keep))
	copy(sorted, keep)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	for _, f := range sorted {
		if _, err := c.InsertTuple(db.Tables[f.Rel].Def.Name, db.Fact(f)); err != nil {
			panic(err) // same schema: cannot fail
		}
	}
	return c
}

// String renders the full database; intended for small examples only.
func (db *Database) String() string {
	var b strings.Builder
	for ri, tb := range db.Tables {
		for row := range tb.Tuples {
			b.WriteString(db.RenderFact(FactRef{int32(ri), int32(row)}))
			b.WriteByte('\n')
		}
	}
	return b.String()
}
