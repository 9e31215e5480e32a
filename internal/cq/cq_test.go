package cq

import (
	"strings"
	"testing"

	"cqabench/internal/relation"
)

func testSchema() *relation.Schema {
	return relation.MustSchema([]relation.RelDef{
		{Name: "R", Attrs: []string{"a", "b", "c"}, KeyLen: 1},
		{Name: "S", Attrs: []string{"x", "y"}, KeyLen: 1},
	}, nil)
}

func TestParseBasic(t *testing.T) {
	d := relation.NewDict()
	q, err := Parse("Q(x, y) :- R(x, 'a', y), S(y, 42)", d)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Atoms) != 2 {
		t.Fatalf("atoms = %d", len(q.Atoms))
	}
	if len(q.Out) != 2 || q.IsBoolean() {
		t.Fatalf("out = %v", q.Out)
	}
	if q.NumVars != 2 {
		t.Fatalf("NumVars = %d", q.NumVars)
	}
	if err := q.Validate(testSchema()); err != nil {
		t.Fatal(err)
	}
	a := q.Atoms[0]
	if a.Rel != "R" || !a.Args[0].IsVar || a.Args[1].IsVar || a.Args[1].Const != d.String("a") {
		t.Fatalf("atom 0 = %+v", a)
	}
	if q.Atoms[1].Args[1].Const != d.Int(42) {
		t.Fatal("integer constant wrong")
	}
}

func TestParseBoolean(t *testing.T) {
	d := relation.NewDict()
	q := MustParse("Q() :- S(x, x)", d)
	if !q.IsBoolean() {
		t.Fatal("expected Boolean query")
	}
	if q.NumJoins() != 1 {
		t.Fatalf("NumJoins = %d", q.NumJoins())
	}
}

func TestParseAnonymousVars(t *testing.T) {
	d := relation.NewDict()
	q := MustParse("Q() :- R(_, _, x), S(x, _)", d)
	if q.NumVars != 4 {
		t.Fatalf("NumVars = %d, want 4 (three anon + x)", q.NumVars)
	}
	if q.NumJoins() != 1 {
		t.Fatalf("NumJoins = %d", q.NumJoins())
	}
	if err := q.Validate(testSchema()); err != nil {
		t.Fatal(err)
	}
}

func TestParseNegativeInt(t *testing.T) {
	d := relation.NewDict()
	q := MustParse("Q() :- S(x, -5)", d)
	if q.Atoms[0].Args[1].Const != d.Int(-5) {
		t.Fatal("negative constant wrong")
	}
}

func TestParseTrailingDot(t *testing.T) {
	d := relation.NewDict()
	if _, err := Parse("Q(x) :- S(x, y).", d); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	d := relation.NewDict()
	for _, bad := range []string{
		"",
		"Q(x)",
		"Q(x) :- ",
		"Q(x) :- R(x",
		"Q(z) :- S(x, y)",     // head var not in body
		"Q(x) :- S(x, 'oops)", // unterminated string
		"Q(x) :- S(x, y) extra",
	} {
		if _, err := Parse(bad, d); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	s := testSchema()
	d := relation.NewDict()
	q := MustParse("Q(x) :- T(x)", d)
	if err := q.Validate(s); err == nil || !strings.Contains(err.Error(), "unknown relation") {
		t.Fatalf("want unknown relation error, got %v", err)
	}
	q2 := MustParse("Q(x) :- S(x)", d)
	if err := q2.Validate(s); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("want arity error, got %v", err)
	}
	q3 := &Query{Atoms: []Atom{{Rel: "S", Args: []Term{V(0), V(5)}}}, NumVars: 2}
	if err := q3.Validate(s); err == nil {
		t.Fatal("out-of-range variable accepted")
	}
	q4 := &Query{Atoms: []Atom{{Rel: "S", Args: []Term{V(0), V(0)}}}, NumVars: 1, Out: []int{0, 0}}
	if err := q4.Validate(s); err == nil {
		t.Fatal("repeated answer variable accepted")
	}
	q5 := &Query{}
	if err := q5.Validate(s); err == nil {
		t.Fatal("empty query accepted")
	}
	q6 := &Query{Atoms: []Atom{{Rel: "S", Args: []Term{V(0), V(0)}}}, NumVars: 2}
	if err := q6.Validate(s); err == nil {
		t.Fatal("unused declared variable accepted")
	}
}

func TestStaticFeatures(t *testing.T) {
	d := relation.NewDict()
	// x occurs 3 times (2 joins), y twice (1 join); 2 constants.
	q := MustParse("Q(x) :- R(x, x, y), S(x, y), S(1, 'a')", d)
	if got := q.NumJoins(); got != 3 {
		t.Fatalf("NumJoins = %d, want 3", got)
	}
	if got := q.NumConstants(); got != 2 {
		t.Fatalf("NumConstants = %d, want 2", got)
	}
	attrs := 0
	for _, a := range q.Atoms {
		attrs += len(a.Args)
	}
	if attrs != 7 {
		t.Fatalf("attribute occurrences = %d, want 7", attrs)
	}
	if len(q.Out) != 1 || q.NumVars != 2 {
		t.Fatalf("projects %d of %d variables, want 1 of 2", len(q.Out), q.NumVars)
	}
	if !hasSelfJoin(q) {
		t.Fatal("self-join not detected")
	}
	q2 := MustParse("Q() :- R(x, y, z), S(u, v)", d)
	if hasSelfJoin(q2) {
		t.Fatal("false self-join")
	}
	if q2.NumJoins() != 0 {
		t.Fatal("join-free query reports joins")
	}
}

func TestWithOutputAndBoolean(t *testing.T) {
	d := relation.NewDict()
	q := MustParse("Q(x, y) :- S(x, y)", d)
	b := q.Boolean()
	if !b.IsBoolean() {
		t.Fatal("Boolean() not Boolean")
	}
	if len(q.Out) != 2 {
		t.Fatal("Boolean() mutated original")
	}
	w := q.WithOutput([]int{1})
	if len(w.Out) != 1 || w.Out[0] != 1 {
		t.Fatalf("WithOutput = %v", w.Out)
	}
}

func TestVars(t *testing.T) {
	d := relation.NewDict()
	q := MustParse("Q() :- R(x, y, x), S(z, z)", d)
	vs := q.Vars()
	if len(vs) != 3 {
		t.Fatalf("Vars = %v", vs)
	}
}

func TestRenderRoundTrip(t *testing.T) {
	d := relation.NewDict()
	src := "Q(x, y) :- R(x, 'a', y), S(y, 42)"
	q := MustParse(src, d)
	rendered := q.Render(d)
	q2, err := Parse(rendered, d)
	if err != nil {
		t.Fatalf("re-parse %q: %v", rendered, err)
	}
	if q2.Render(d) != rendered {
		t.Fatalf("render not stable: %q vs %q", q2.Render(d), rendered)
	}
}

func TestRenderWithoutDict(t *testing.T) {
	q := &Query{
		Atoms:    []Atom{{Rel: "S", Args: []Term{V(0), C(7)}}},
		Out:      []int{0},
		NumVars:  1,
		VarNames: []string{"x"},
	}
	if got := q.String(); got != "Q(x) :- S(x, 7)" {
		t.Fatalf("String = %q", got)
	}
}

// hasSelfJoin reports whether some relation name occurs in two atoms.
func hasSelfJoin(q *Query) bool {
	seen := make(map[string]bool, len(q.Atoms))
	for _, a := range q.Atoms {
		if seen[a.Rel] {
			return true
		}
		seen[a.Rel] = true
	}
	return false
}
