// Package engine evaluates conjunctive queries over in-memory databases by
// enumerating homomorphisms. Unlike a standard query processor it must
// produce every homomorphism h from Q to D — not just the distinct answer
// tuples h(x̄) — because the synopsis of Section 4.1 collects all
// homomorphic images h(Q). This is the Go stand-in for the paper's
// PostgreSQL evaluation of the rewriting Q^rew (Appendix C).
package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"cqabench/internal/cq"
	"cqabench/internal/relation"
)

// Homomorphism is one mapping from a query's variables to constants,
// together with the facts it touches. PerAtom lists, for each body atom,
// the fact it maps to; Image is the deduplicated, sorted set h(Q).
// The slices are reused between callback invocations: copy them if they
// must outlive the callback.
type Homomorphism struct {
	Assign  []relation.Value
	PerAtom []relation.FactRef
	Image   []relation.FactRef
}

// ErrStop may be returned by an enumeration callback to stop early without
// reporting an error.
var ErrStop = errors.New("engine: stop enumeration")

// Evaluator evaluates queries over a fixed database, caching hash indexes
// keyed by (relation, set of bound positions) across queries. It is not
// safe for concurrent use.
type Evaluator struct {
	db      *relation.Database
	indexes map[indexKey]map[string][]int32
}

type indexKey struct {
	rel  int
	mask uint64
}

// NewEvaluator returns an evaluator over db.
func NewEvaluator(db *relation.Database) *Evaluator {
	return &Evaluator{db: db, indexes: make(map[indexKey]map[string][]int32)}
}

// plan fixes an atom processing order and, per atom, the argument
// positions that will be bound when the atom is processed.
type plan struct {
	order []int   // atom indexes in processing order
	bound [][]int // per step: positions of args bound at probe time
}

// makePlan greedily orders atoms: at each step pick the atom with the most
// bound argument positions (constants plus variables bound by earlier
// atoms), breaking ties toward smaller relations.
func (e *Evaluator) makePlan(q *cq.Query) plan {
	n := len(q.Atoms)
	used := make([]bool, n)
	boundVar := make([]bool, q.NumVars)
	p := plan{order: make([]int, 0, n), bound: make([][]int, 0, n)}
	for step := 0; step < n; step++ {
		best, bestScore, bestSize := -1, -1, 0
		for ai := 0; ai < n; ai++ {
			if used[ai] {
				continue
			}
			score := 0
			for _, t := range q.Atoms[ai].Args {
				if !t.IsVar || boundVar[t.Var] {
					score++
				}
			}
			size := len(e.db.Tables[e.db.Schema.RelIndex(q.Atoms[ai].Rel)].Tuples)
			if score > bestScore || (score == bestScore && size < bestSize) {
				best, bestScore, bestSize = ai, score, size
			}
		}
		a := q.Atoms[best]
		var positions []int
		for i, t := range a.Args {
			if !t.IsVar || boundVar[t.Var] {
				positions = append(positions, i)
			}
		}
		for _, t := range a.Args {
			if t.IsVar {
				boundVar[t.Var] = true
			}
		}
		used[best] = true
		p.order = append(p.order, best)
		p.bound = append(p.bound, positions)
	}
	return p
}

// index returns (building if needed) the hash index of relation ri on the
// given positions. positions must be sorted ascending.
func (e *Evaluator) index(ri int, positions []int) map[string][]int32 {
	var mask uint64
	for _, p := range positions {
		mask |= 1 << uint(p)
	}
	key := indexKey{ri, mask}
	if idx, ok := e.indexes[key]; ok {
		return idx
	}
	tuples := e.db.Tables[ri].Tuples
	idx := make(map[string][]int32, len(tuples))
	probe := make([]relation.Value, len(positions))
	for row, t := range tuples {
		for i, p := range positions {
			probe[i] = t[p]
		}
		k := encodeValues(probe)
		idx[k] = append(idx[k], int32(row))
	}
	e.indexes[key] = idx
	return idx
}

func encodeValues(vals []relation.Value) string {
	var b strings.Builder
	b.Grow(len(vals) * 8)
	for _, v := range vals {
		u := uint64(v)
		var buf [8]byte
		for k := 0; k < 8; k++ {
			buf[k] = byte(u >> (8 * k))
		}
		b.Write(buf[:])
	}
	return b.String()
}

// EnumerateHomomorphisms invokes fn for every homomorphism from q to the
// database. fn may return ErrStop to halt enumeration. The Homomorphism
// passed to fn is reused; callers must copy slices they keep.
func (e *Evaluator) EnumerateHomomorphisms(q *cq.Query, fn func(*Homomorphism) error) error {
	if err := q.Validate(e.db.Schema); err != nil {
		return err
	}
	pl := e.makePlan(q)
	h := &Homomorphism{
		Assign:  make([]relation.Value, q.NumVars),
		PerAtom: make([]relation.FactRef, len(q.Atoms)),
	}
	assigned := make([]bool, q.NumVars)
	err := e.search(q, pl, 0, h, assigned, fn)
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}

func (e *Evaluator) search(q *cq.Query, pl plan, step int, h *Homomorphism, assigned []bool, fn func(*Homomorphism) error) error {
	if step == len(pl.order) {
		h.Image = dedupeFacts(h.Image[:0], h.PerAtom)
		return fn(h)
	}
	ai := pl.order[step]
	atom := q.Atoms[ai]
	ri := e.db.Schema.RelIndex(atom.Rel)
	positions := pl.bound[step]

	var rows []int32
	if len(positions) == 0 {
		tuples := e.db.Tables[ri].Tuples
		for row := range tuples {
			if err := e.tryBind(q, pl, step, ai, ri, int32(row), h, assigned, fn); err != nil {
				return err
			}
		}
		_ = rows
		return nil
	}
	probe := make([]relation.Value, len(positions))
	for i, p := range positions {
		t := atom.Args[p]
		if t.IsVar {
			probe[i] = h.Assign[t.Var]
		} else {
			probe[i] = t.Const
		}
	}
	rows = e.index(ri, positions)[encodeValues(probe)]
	for _, row := range rows {
		if err := e.tryBind(q, pl, step, ai, ri, row, h, assigned, fn); err != nil {
			return err
		}
	}
	return nil
}

// tryBind attempts to match atom ai against the given row, binding any
// free variables, and recurses. Bound positions are guaranteed to match by
// index construction, but repeated free variables within the atom still
// need checking.
func (e *Evaluator) tryBind(q *cq.Query, pl plan, step, ai, ri int, row int32, h *Homomorphism, assigned []bool, fn func(*Homomorphism) error) error {
	atom := q.Atoms[ai]
	tuple := e.db.Tables[ri].Tuples[row]
	var newlyBound []int
	ok := true
	for i, t := range atom.Args {
		if !t.IsVar {
			if tuple[i] != t.Const {
				ok = false
				break
			}
			continue
		}
		if assigned[t.Var] {
			if h.Assign[t.Var] != tuple[i] {
				ok = false
				break
			}
			continue
		}
		assigned[t.Var] = true
		h.Assign[t.Var] = tuple[i]
		newlyBound = append(newlyBound, t.Var)
	}
	var err error
	if ok {
		h.PerAtom[ai] = relation.FactRef{Rel: int32(ri), Row: row}
		err = e.search(q, pl, step+1, h, assigned, fn)
	}
	for _, v := range newlyBound {
		assigned[v] = false
	}
	return err
}

func dedupeFacts(dst, src []relation.FactRef) []relation.FactRef {
	dst = append(dst, src...)
	sort.Slice(dst, func(i, j int) bool { return dst[i].Less(dst[j]) })
	out := dst[:0]
	for i, f := range dst {
		if i == 0 || f != dst[i-1] {
			out = append(out, f)
		}
	}
	return out
}

// Answers returns the distinct answer tuples Q(D) in deterministic
// (lexicographic) order.
func (e *Evaluator) Answers(q *cq.Query) ([]relation.Tuple, error) {
	seen := make(map[string]relation.Tuple)
	err := e.EnumerateHomomorphisms(q, func(h *Homomorphism) error {
		t := make(relation.Tuple, len(q.Out))
		for i, v := range q.Out {
			t[i] = h.Assign[v]
		}
		seen[encodeValues(t)] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]relation.Tuple, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// HasAnswer reports whether t̄ ∈ Q(D).
func (e *Evaluator) HasAnswer(q *cq.Query, t relation.Tuple) (bool, error) {
	if len(t) != len(q.Out) {
		return false, fmt.Errorf("engine: tuple arity %d does not match output arity %d", len(t), len(q.Out))
	}
	found := false
	err := e.EnumerateHomomorphisms(q, func(h *Homomorphism) error {
		for i, v := range q.Out {
			if h.Assign[v] != t[i] {
				return nil
			}
		}
		found = true
		return ErrStop
	})
	return found, err
}

// CountHomomorphismsUpTo counts homomorphisms but stops at limit,
// reporting whether the count stayed within it. Scenario construction
// uses it to reject queries whose evaluation would explode.
func (e *Evaluator) CountHomomorphismsUpTo(q *cq.Query, limit int) (int, bool, error) {
	n := 0
	err := e.EnumerateHomomorphisms(q, func(*Homomorphism) error {
		n++
		if n > limit {
			return ErrStop
		}
		return nil
	})
	return n, n <= limit, err
}
