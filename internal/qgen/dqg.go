package qgen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"cqabench/internal/cq"
	"cqabench/internal/engine"
	"cqabench/internal/mt"
	"cqabench/internal/relation"
)

// DQGConfig parameterizes the dynamic query generator. The paper bounds
// the pool search by wall-clock hours (the t parameter of Section 6.1);
// Iterations bounds it by candidate projections, which is deterministic,
// and TimeBudget optionally adds the paper's wall-clock bound — whichever
// ends first stops the search.
type DQGConfig struct {
	Iterations int
	Seed       uint64
	// TimeBudget, when positive, stops the pool search after this much
	// wall-clock time even if Iterations remain.
	TimeBudget time.Duration
}

// DQGResult pairs a generated query with the balance it achieves.
type DQGResult struct {
	Query   *cq.Query
	Balance float64
	Target  float64
}

// DQG generates, for each target balance, the projection of q (same body,
// different answer variables) whose balance w.r.t. db is closest to the
// target, by sampling random projections (Section 6.1).
//
// The search evaluates the query body exactly once: balance is
// |syn_{Σ,Q}(D)| / |∪H_i|, and for a fixed body only the numerator — the
// number of distinct projections of the consistent homomorphisms — depends
// on the choice of answer variables. The paper's 12-hour-per-query pool
// search reduces to one refinement pass per candidate.
func DQG(db *relation.Database, q *cq.Query, targets []float64, cfg DQGConfig) ([]DQGResult, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("qgen: DQG needs at least one target balance")
	}
	for _, b := range targets {
		if b < 0 || b > 1 {
			return nil, fmt.Errorf("qgen: target balance %v outside [0, 1]", b)
		}
	}
	iters := cfg.Iterations
	if iters <= 0 {
		iters = 200
	}

	body := q.Boolean() // all variables free for projection
	assigns, images, err := consistentHoms(db, body)
	if err != nil {
		return nil, err
	}
	if images == 0 {
		return nil, fmt.Errorf("qgen: query has no consistent homomorphisms over the database")
	}
	homSize := float64(images)
	proj := newProjections(assigns, body.NumVars)
	balanceOf := func(vars []int) float64 {
		return float64(proj.count(vars)) / homSize
	}

	src := mt.New(cfg.Seed)
	vars := body.Vars()
	var deadline time.Time
	if cfg.TimeBudget > 0 {
		deadline = time.Now().Add(cfg.TimeBudget)
	}

	type cand struct {
		vars    []int
		balance float64
	}
	// Seed the pool with the extremes: Boolean (minimal balance) and the
	// full projection (maximal balance).
	pool := []cand{
		{nil, balanceOf(nil)},
		{append([]int(nil), vars...), balanceOf(vars)},
	}
	seen := map[string]bool{varsKey(nil): true, varsKey(vars): true}
	for i := 0; i < iters; i++ {
		if !deadline.IsZero() && i%16 == 0 && time.Now().After(deadline) {
			break
		}
		var subset []int
		for _, v := range vars {
			if src.Intn(2) == 0 {
				subset = append(subset, v)
			}
		}
		sort.Ints(subset)
		k := varsKey(subset)
		if seen[k] {
			continue
		}
		seen[k] = true
		pool = append(pool, cand{subset, balanceOf(subset)})
	}

	out := make([]DQGResult, len(targets))
	for i, target := range targets {
		best := 0
		for j := 1; j < len(pool); j++ {
			if math.Abs(pool[j].balance-target) < math.Abs(pool[best].balance-target) {
				best = j
			}
		}
		out[i] = DQGResult{
			Query:   q.WithOutput(pool[best].vars),
			Balance: pool[best].balance,
			Target:  target,
		}
	}
	return out, nil
}

// consistentHoms evaluates body over db once and returns the variable
// assignment of every key-consistent homomorphism, with the number of
// distinct consistent images.
func consistentHoms(db *relation.Database, body *cq.Query) ([][]relation.Value, int, error) {
	bi := relation.BuildBlocks(db)
	var assigns [][]relation.Value
	images := make(map[string]struct{})
	err := engine.NewEvaluator(db).EnumerateHomomorphisms(body, func(h *engine.Homomorphism) error {
		if !bi.SatisfiesKeys(h.Image) {
			return nil
		}
		assigns = append(assigns, append([]relation.Value(nil), h.Assign...))
		images[relation.FactsKey(h.Image)] = struct{}{}
		return nil
	})
	return assigns, len(images), err
}

// projections counts the distinct projections of a fixed set of
// homomorphisms onto subsets of their variables by partition refinement:
// every homomorphism starts in one class, and each projected variable
// splits every class by the value the variable takes. The class count
// after the last variable is the number of distinct projections.
type projections struct {
	// byValue[v] lists the homomorphisms grouped by their value of
	// variable v; group g is byValue[v][starts[v][g]:starts[v][g+1]].
	byValue, starts [][]int32
	// class holds each homomorphism's class, and next receives the
	// refined ones. For each old class, stamp records the last group
	// that split it and id the class it became in that group.
	class, next, id []int32
	stamp           []int
	group           int
}

// newProjections gives each variable's values dense ids in order of
// first appearance and groups the homomorphisms by them, once.
func newProjections(assigns [][]relation.Value, numVars int) *projections {
	n := len(assigns)
	p := &projections{
		byValue: make([][]int32, numVars),
		starts:  make([][]int32, numVars),
		class:   make([]int32, n),
		next:    make([]int32, n),
		id:      make([]int32, n),
		stamp:   make([]int, n),
	}
	valueID := make([]int32, n)
	for v := 0; v < numVars; v++ {
		ids := make(map[relation.Value]int32)
		starts := []int32{0}
		for h, a := range assigns {
			g, ok := ids[a[v]]
			if !ok {
				g = int32(len(ids))
				ids[a[v]] = g
				starts = append(starts, 0)
			}
			valueID[h] = g
			starts[g+1]++
		}
		for g := 1; g < len(starts); g++ {
			starts[g] += starts[g-1]
		}
		fill := append([]int32(nil), starts[:len(starts)-1]...)
		order := make([]int32, n)
		for h, g := range valueID {
			order[fill[g]] = int32(h)
			fill[g]++
		}
		p.byValue[v], p.starts[v] = order, starts
	}
	return p
}

// count returns the number of distinct projections of the homomorphisms
// onto vars: 1 for no variables.
func (p *projections) count(vars []int) int {
	clear(p.class)
	classes := 1
	for _, v := range vars {
		order, starts := p.byValue[v], p.starts[v]
		classes = 0
		for g := 0; g+1 < len(starts); g++ {
			p.group++
			for _, h := range order[starts[g]:starts[g+1]] {
				c := p.class[h]
				if p.stamp[c] != p.group {
					p.stamp[c] = p.group
					p.id[c] = int32(classes)
					classes++
				}
				p.next[h] = p.id[c]
			}
		}
		p.class, p.next = p.next, p.class
	}
	return classes
}

// varsKey identifies a sorted variable subset.
func varsKey(vars []int) string {
	b := make([]byte, 0, 4*len(vars))
	for _, v := range vars {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
	}
	return string(b)
}
