// Package cq defines conjunctive queries (CQs) over relational schemas:
//
//	Q(x̄) :- R1(z̄1) ∧ ... ∧ Rn(z̄n)
//
// with answer variables x̄ and existentially quantified body variables,
// plus a small text syntax, validation against a schema, and the static
// query features the paper's generators tune (number of joins, number of
// constant occurrences, fraction of projected attributes).
package cq

import (
	"fmt"
	"strings"

	"cqabench/internal/relation"
)

// Term is either a variable (identified by a small integer) or a constant.
type Term struct {
	IsVar bool
	Var   int
	Const relation.Value
}

// V returns a variable term.
func V(id int) Term { return Term{IsVar: true, Var: id} }

// C returns a constant term.
func C(v relation.Value) Term { return Term{Const: v} }

// Atom is a relational atom R(t1,...,tn).
type Atom struct {
	Rel  string
	Args []Term
}

// Query is a conjunctive query. Out lists the answer variables in output
// order; all other variables are existentially quantified. VarNames is
// optional display metadata (parallel to variable ids).
type Query struct {
	Atoms    []Atom
	Out      []int
	NumVars  int
	VarNames []string
}

// IsBoolean reports whether the query has no answer variables.
func (q *Query) IsBoolean() bool { return len(q.Out) == 0 }

// Validate checks the query against a schema: every atom's relation must
// exist with matching arity, variable ids must be dense in [0, NumVars),
// and every answer variable must occur in the body.
func (q *Query) Validate(s *relation.Schema) error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("cq: query has no atoms")
	}
	occurs := make([]bool, q.NumVars)
	for ai, a := range q.Atoms {
		def := s.Rel(a.Rel)
		if def == nil {
			return fmt.Errorf("cq: atom %d: unknown relation %q", ai, a.Rel)
		}
		if len(a.Args) != def.Arity() {
			return fmt.Errorf("cq: atom %d: %s expects arity %d, got %d", ai, a.Rel, def.Arity(), len(a.Args))
		}
		for _, t := range a.Args {
			if t.IsVar {
				if t.Var < 0 || t.Var >= q.NumVars {
					return fmt.Errorf("cq: atom %d: variable id %d out of range [0,%d)", ai, t.Var, q.NumVars)
				}
				occurs[t.Var] = true
			}
		}
	}
	for v, ok := range occurs {
		if !ok {
			return fmt.Errorf("cq: variable %s does not occur in the body", q.varName(v))
		}
	}
	seen := make(map[int]bool, len(q.Out))
	for _, v := range q.Out {
		if v < 0 || v >= q.NumVars {
			return fmt.Errorf("cq: answer variable id %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("cq: answer variable %s repeated", q.varName(v))
		}
		seen[v] = true
	}
	return nil
}

func (q *Query) varName(v int) string {
	if v >= 0 && v < len(q.VarNames) && q.VarNames[v] != "" {
		return q.VarNames[v]
	}
	return fmt.Sprintf("v%d", v)
}

// NumJoins counts the query's join conditions: a variable occurring k > 1
// times across the body contributes k-1 joins. This matches the SQG's j
// parameter (each generated join condition shares one variable between two
// attribute occurrences).
func (q *Query) NumJoins() int {
	occ := make([]int, q.NumVars)
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar {
				occ[t.Var]++
			}
		}
	}
	joins := 0
	for _, k := range occ {
		if k > 1 {
			joins += k - 1
		}
	}
	return joins
}

// NumConstants counts constant occurrences in the body (the SQG's c
// parameter).
func (q *Query) NumConstants() int {
	n := 0
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if !t.IsVar {
				n++
			}
		}
	}
	return n
}

// WithOutput returns a copy of q whose answer variables are vars (which
// must occur in the body). The dynamic query generator uses it to explore
// projections of a fixed body.
func (q *Query) WithOutput(vars []int) *Query {
	nq := &Query{
		Atoms:    q.Atoms,
		Out:      append([]int(nil), vars...),
		NumVars:  q.NumVars,
		VarNames: q.VarNames,
	}
	return nq
}

// Boolean returns the Boolean version of q: all variables existentially
// quantified. This is the paper's Q_p[0].
func (q *Query) Boolean() *Query { return q.WithOutput(nil) }

// String renders the query in the package's text syntax.
func (q *Query) String() string { return q.Render(nil) }

// Render renders the query, using dict to display constants when non-nil.
func (q *Query) Render(dict *relation.Dict) string {
	var b strings.Builder
	b.WriteString("Q(")
	for i, v := range q.Out {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(q.varName(v))
	}
	b.WriteString(") :- ")
	for ai, a := range q.Atoms {
		if ai > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Rel)
		b.WriteByte('(')
		for i, t := range a.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			if t.IsVar {
				b.WriteString(q.varName(t.Var))
			} else if dict != nil {
				b.WriteString(quoteConst(dict.Render(t.Const)))
			} else if t.Const >= 0 {
				fmt.Fprintf(&b, "%d", int64(t.Const))
			} else {
				fmt.Fprintf(&b, "'#%d'", -int64(t.Const))
			}
		}
		b.WriteByte(')')
	}
	return b.String()
}

func quoteConst(s string) string {
	for _, r := range s {
		if r < '0' || r > '9' {
			return "'" + s + "'"
		}
	}
	if s == "" {
		return "''"
	}
	return s
}

// Vars returns the sorted list of distinct variables occurring in the body.
func (q *Query) Vars() []int {
	occ := make([]bool, q.NumVars)
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar {
				occ[t.Var] = true
			}
		}
	}
	var out []int
	for v, ok := range occ {
		if ok {
			out = append(out, v)
		}
	}
	return out
}
