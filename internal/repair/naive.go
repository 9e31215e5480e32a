package repair

import (
	"context"
	"errors"
	"fmt"

	"cqabench/internal/cq"
	"cqabench/internal/engine"
	"cqabench/internal/estimator"
	"cqabench/internal/mt"
	"cqabench/internal/relation"
)

// NaiveNaturalFreq approximates R_{D,Σ,Q}(t̄) by the synopsis-free natural
// approach: sample whole-database repairs uniformly, evaluate Q over each
// sampled repair, and feed the 0/1 outcomes to the optimal Monte Carlo
// estimator. This is what "sampling from the natural space" means without
// the synopsis of Section 4.1: every sample pays a full query evaluation
// over a database-sized repair, and blocks irrelevant to the query are
// sampled anyway. It exists as the ablation baseline quantifying what the
// synopsis buys (see BenchmarkAblation_SynopsisVsWholeDB) and as an
// independent cross-check of the synopsis-based schemes.
//
// The estimator requires a positive mean: if t̄ has zero relative
// frequency, the stopping rule would never terminate, so callers must set
// a budget; ErrFreqZero is returned once a cheap witness check fails.
func NaiveNaturalFreq(db *relation.Database, q *cq.Query, t relation.Tuple, eps, delta float64, src *mt.Source, budget estimator.Budget) (estimator.Result, error) {
	if len(t) != len(q.Out) {
		return estimator.Result{}, fmt.Errorf("repair: tuple arity %d vs output arity %d", len(t), len(q.Out))
	}
	// Lemma 4.1(4): positive frequency iff some consistent homomorphic
	// image witnesses t̄ in D.
	bi := relation.BuildBlocks(db)
	ev := engine.NewEvaluator(db)
	hasWitness := false
	err := ev.EnumerateHomomorphisms(q, func(h *engine.Homomorphism) error {
		for i, v := range q.Out {
			if h.Assign[v] != t[i] {
				return nil
			}
		}
		if bi.SatisfiesKeys(h.Image) {
			hasWitness = true
			return engine.ErrStop
		}
		return nil
	})
	if err != nil {
		return estimator.Result{}, err
	}
	if !hasWitness {
		return estimator.Result{}, ErrFreqZero
	}
	s := &repairSampler{db: db, bi: bi, q: q, t: t}
	return estimator.MonteCarloContext(context.Background(), s, eps, delta, src, budget)
}

// ErrFreqZero reports a candidate tuple with relative frequency zero.
var ErrFreqZero = errors.New("repair: tuple has zero relative frequency")

// repairSampler draws a uniform repair and evaluates the query on it.
type repairSampler struct {
	db *relation.Database
	bi *relation.BlockIndex
	q  *cq.Query
	t  relation.Tuple
}

// Sample materializes one uniform repair and returns 1 iff t ∈ Q(repair).
func (s *repairSampler) Sample(src *mt.Source) float64 {
	kept := SampleRepair(s.bi, src)
	rep := s.db.Restrict(kept)
	ok, err := engine.NewEvaluator(rep).HasAnswer(s.q, s.t)
	if err != nil {
		// The query validated against the schema already; evaluation over
		// a repair cannot fail.
		panic(err)
	}
	if ok {
		return 1
	}
	return 0
}
