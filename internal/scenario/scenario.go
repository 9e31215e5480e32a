// Package scenario constructs the paper's test scenarios (Section 6.2):
// families of (database, query) pairs over TPC-H where one of the three
// key input parameters — noise percentage, query balance, number of
// joins — varies while the other two are fixed, plus the validation
// scenarios of Appendix F over TPC-H and TPC-DS query-template renderings.
//
// The Lab mirrors the paper's P_H construction: a consistent base
// database, SQG-generated base queries per join level (2 constant
// occurrences, all attributes projected), noisy databases D_Q[p] per base
// query and noise level, and DQG-generated queries Q_p[q] per balance
// level, with Q_p[0] the Boolean query. Everything is cached and
// deterministic for a fixed Config.
package scenario

import (
	"fmt"

	"cqabench/internal/cq"
	"cqabench/internal/engine"
	"cqabench/internal/noise"
	"cqabench/internal/qgen"
	"cqabench/internal/relation"
	"cqabench/internal/tpch"
)

// Config scales the scenario grid. The paper's grid is Joins 1–5 with 5
// queries per level, noise {0.1,...,1.0}, balance {0,0.1,...,1.0}; the
// defaults here are a reduced grid that preserves the trends.
type Config struct {
	ScaleFactor    float64
	Seed           uint64
	QueriesPerJoin int
	Constants      int
	BlockMin       int
	BlockMax       int
	DQGIterations  int
	SQGTries       int
	// MaxHoms rejects base queries with more homomorphisms than this
	// over the base database (the paper likewise discards trivial
	// queries that "return everything that can be returned"). 0 means
	// the default of 50000.
	MaxHoms int
}

// DefaultConfig returns a laptop-scale grid faithful to the paper's
// parameters (2 constants, blocks in [2, 5]).
func DefaultConfig() Config {
	return Config{
		ScaleFactor:    0.0005,
		Seed:           1,
		QueriesPerJoin: 2,
		Constants:      2,
		BlockMin:       2,
		BlockMax:       5,
		DQGIterations:  80,
		SQGTries:       80,
	}
}

// PaperConfig returns the paper's full experimental grid: TPC-H at scale
// factor 1 (~8.7M facts), five queries per join level, the complete
// noise/balance level sets, and a large DQG search. Running the full
// matrix with this configuration is the paper's 48-CPU-day experiment;
// use it deliberately (the default harness timeouts then also need the
// paper's 1-hour setting).
func PaperConfig() Config {
	return Config{
		ScaleFactor:    1,
		Seed:           1,
		QueriesPerJoin: 5,
		Constants:      2,
		BlockMin:       2,
		BlockMax:       5,
		DQGIterations:  100000,
		SQGTries:       200,
		MaxHoms:        1 << 30,
	}
}

// Fingerprint renders the configuration canonically: two Configs have
// equal fingerprints iff the Lab deterministically generates the same
// pair universe from them. The synopsis cache uses it as the
// scenario-config component of its content address.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("tpch sf=%g seed=%d qpj=%d const=%d block=[%d,%d] dqg=%d sqg=%d maxhoms=%d",
		c.ScaleFactor, c.Seed, c.QueriesPerJoin, c.Constants,
		c.BlockMin, c.BlockMax, c.DQGIterations, c.SQGTries, c.MaxHoms)
}

// PaperNoiseLevels returns the paper's noise grid {0.1, ..., 1.0}.
func PaperNoiseLevels() []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = float64(i+1) / 10
	}
	return out
}

// PaperBalanceLevels returns the paper's balance grid {0, 0.1, ..., 1.0}.
func PaperBalanceLevels() []float64 {
	out := make([]float64, 11)
	for i := range out {
		out[i] = float64(i) / 10
	}
	return out
}

// PaperJoinLevels returns the paper's join grid {1, ..., 5}.
func PaperJoinLevels() []int { return []int{1, 2, 3, 4, 5} }

// Pair is one database–query pair of a scenario, annotated with the
// parameters that produced it.
type Pair struct {
	Name    string
	DB      *relation.Database
	Query   *cq.Query
	Noise   float64 // requested noise percentage p
	Balance float64 // achieved balance of Query w.r.t. DB
	Target  float64 // requested balance level q (0 = Boolean)
	Joins   int     // join count of the base query
}

// Axis names the parameter a workload sweeps: the x-axis of its figure.
type Axis string

// The three axes of the paper's scenario families.
const (
	NoiseAxis   Axis = "noise"   // Noise[q, j] and Validation[Q]
	BalanceAxis Axis = "balance" // Balance[p, j]
	JoinsAxis   Axis = "joins"   // Joins[p, q]
)

// Level returns the pair's position on the axis: the noise or target
// balance in percent, or the join count.
func (a Axis) Level(p Pair) float64 {
	switch a {
	case BalanceAxis:
		return p.Target * 100
	case JoinsAxis:
		return float64(p.Joins)
	}
	return p.Noise * 100
}

// Label returns the axis title, or "" for an unknown axis.
func (a Axis) Label() string {
	switch a {
	case NoiseAxis:
		return "Noise (%)"
	case BalanceAxis:
		return "Balance (%)"
	case JoinsAxis:
		return "Joins"
	}
	return ""
}

// Workload is a named test scenario: a family of pairs swept along one
// axis.
type Workload struct {
	Name  string
	Axis  Axis
	Pairs []Pair
	// Fingerprint canonically identifies the generator configuration
	// that produced the pairs (Config.Fingerprint for Lab-built
	// workloads). The synopsis cache keys on it; an empty fingerprint
	// marks a workload whose provenance is unknown (e.g. one read back
	// from an export directory) and disables caching for its pairs.
	Fingerprint string
}

// Lab builds and caches the P_H-style pair universe.
type Lab struct {
	cfg     Config
	base    *relation.Database
	pool    qgen.ConstPool
	queries map[int][]*cq.Query           // join level -> base queries
	noisy   map[string]*relation.Database // (j,i,p) -> noisy DB
	dqg     map[string]qgen.DQGResult     // (j,i,p,q) -> balanced query
}

// NewLab generates the base TPC-H database and the SQG base queries for
// join levels 1–5.
func NewLab(cfg Config) (*Lab, error) {
	if cfg.QueriesPerJoin <= 0 {
		return nil, fmt.Errorf("scenario: QueriesPerJoin must be positive")
	}
	base, err := tpch.Generate(tpch.Config{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	l := &Lab{
		cfg:     cfg,
		base:    base,
		pool:    qgen.BuildConstPool(base, 24),
		queries: make(map[int][]*cq.Query),
		noisy:   make(map[string]*relation.Database),
		dqg:     make(map[string]qgen.DQGResult),
	}
	return l, nil
}

// BaseQuery returns the i-th SQG base query with j joins (2 occurrences of
// constants, all attributes projected, non-empty over the base database).
func (l *Lab) BaseQuery(j, i int) (*cq.Query, error) {
	if i < 0 || i >= l.cfg.QueriesPerJoin {
		return nil, fmt.Errorf("scenario: query index %d out of range [0,%d)", i, l.cfg.QueriesPerJoin)
	}
	if qs, ok := l.queries[j]; ok {
		return qs[i], nil
	}
	maxHoms := l.cfg.MaxHoms
	if maxHoms <= 0 {
		maxHoms = 50000
	}
	ev := engine.NewEvaluator(l.base)
	qs := make([]*cq.Query, l.cfg.QueriesPerJoin)
	for k := range qs {
		var q *cq.Query
		// Reject trivial queries: non-empty but with a bounded number of
		// homomorphisms over the base database, so the scenario stays
		// tractable after noise multiplies the images.
		for attempt := 0; attempt < l.cfg.SQGTries; attempt++ {
			cand, err := qgen.SQGNonEmpty(l.base, l.pool, qgen.SQGConfig{
				Joins:      j,
				Constants:  l.cfg.Constants,
				Projection: 1,
				Seed:       l.cfg.Seed + uint64(j)*101 + uint64(k)*100057 + uint64(attempt)*777767,
			}, l.cfg.SQGTries)
			if err != nil {
				return nil, fmt.Errorf("scenario: base query j=%d i=%d: %w", j, k, err)
			}
			_, within, err := ev.CountHomomorphismsUpTo(cand, maxHoms)
			if err != nil {
				return nil, err
			}
			if within {
				q = cand
				break
			}
		}
		if q == nil {
			return nil, fmt.Errorf("scenario: base query j=%d i=%d: every candidate exceeded %d homomorphisms", j, k, maxHoms)
		}
		qs[k] = q
	}
	l.queries[j] = qs
	return qs[i], nil
}

// NoisyDB returns D_Q[p]: the base database with query-aware noise p
// injected for base query (j, i), block sizes in [BlockMin, BlockMax].
func (l *Lab) NoisyDB(j, i int, p float64) (*relation.Database, error) {
	key := fmt.Sprintf("%d/%d/%.3f", j, i, p)
	if db, ok := l.noisy[key]; ok {
		return db, nil
	}
	q, err := l.BaseQuery(j, i)
	if err != nil {
		return nil, err
	}
	db, _, err := noise.Apply(l.base, q, noise.Config{
		P:        p,
		MinBlock: l.cfg.BlockMin,
		MaxBlock: l.cfg.BlockMax,
		Seed:     l.cfg.Seed + uint64(j)*7 + uint64(i)*13 + uint64(p*1000),
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: noise j=%d i=%d p=%.2f: %w", j, i, p, err)
	}
	l.noisy[key] = db
	return db, nil
}

// BalancedQuery returns Q_p[q]: the projection of base query (j, i) whose
// balance over D_Q[p] is closest to q. q = 0 yields the Boolean query, as
// in the paper.
func (l *Lab) BalancedQuery(j, i int, p, q float64) (*cq.Query, float64, error) {
	base, err := l.BaseQuery(j, i)
	if err != nil {
		return nil, 0, err
	}
	db, err := l.NoisyDB(j, i, p)
	if err != nil {
		return nil, 0, err
	}
	if q == 0 {
		bq := base.Boolean()
		return bq, 0, nil
	}
	key := fmt.Sprintf("%d/%d/%.3f/%.3f", j, i, p, q)
	if r, ok := l.dqg[key]; ok {
		return r.Query, r.Balance, nil
	}
	res, err := qgen.DQG(db, base, []float64{q}, qgen.DQGConfig{
		Iterations: l.cfg.DQGIterations,
		Seed:       l.cfg.Seed + uint64(q*1000) + uint64(j),
	})
	if err != nil {
		return nil, 0, fmt.Errorf("scenario: DQG j=%d i=%d p=%.2f q=%.2f: %w", j, i, p, q, err)
	}
	l.dqg[key] = res[0]
	return res[0].Query, res[0].Balance, nil
}

// pair assembles one annotated pair.
func (l *Lab) pair(j, i int, p, q float64) (Pair, error) {
	db, err := l.NoisyDB(j, i, p)
	if err != nil {
		return Pair{}, err
	}
	query, bal, err := l.BalancedQuery(j, i, p, q)
	if err != nil {
		return Pair{}, err
	}
	return Pair{
		Name:    fmt.Sprintf("j%d/q%d/p%.1f/b%.1f", j, i, p, q),
		DB:      db,
		Query:   query,
		Noise:   p,
		Balance: bal,
		Target:  q,
		Joins:   j,
	}, nil
}

// NoiseScenario builds Noise[balance, joins]: noise varies over levels,
// balance and joins fixed (Figure 1 and Appendix Figures 6–7).
func (l *Lab) NoiseScenario(balance float64, joins int, levels []float64) (*Workload, error) {
	w := &Workload{Name: fmt.Sprintf("Noise[%.1f, %d]", balance, joins), Axis: NoiseAxis, Fingerprint: l.cfg.Fingerprint()}
	for _, p := range levels {
		for i := 0; i < l.cfg.QueriesPerJoin; i++ {
			pr, err := l.pair(joins, i, p, balance)
			if err != nil {
				return nil, err
			}
			w.Pairs = append(w.Pairs, pr)
		}
	}
	return w, nil
}

// BalanceScenario builds Balance[noise, joins]: balance varies, noise and
// joins fixed (Figure 2 and Appendix Figures 8–9).
func (l *Lab) BalanceScenario(noisep float64, joins int, levels []float64) (*Workload, error) {
	w := &Workload{Name: fmt.Sprintf("Balance[%.1f, %d]", noisep, joins), Axis: BalanceAxis, Fingerprint: l.cfg.Fingerprint()}
	for _, q := range levels {
		for i := 0; i < l.cfg.QueriesPerJoin; i++ {
			pr, err := l.pair(joins, i, noisep, q)
			if err != nil {
				return nil, err
			}
			w.Pairs = append(w.Pairs, pr)
		}
	}
	return w, nil
}

// JoinsScenario builds Joins[noise, balance]: the join count varies, noise
// and balance fixed (Figure 4 and Appendix Figures 10–13).
func (l *Lab) JoinsScenario(noisep, balance float64, joinLevels []int) (*Workload, error) {
	w := &Workload{Name: fmt.Sprintf("Joins[%.1f, %.1f]", noisep, balance), Axis: JoinsAxis, Fingerprint: l.cfg.Fingerprint()}
	for _, j := range joinLevels {
		for i := 0; i < l.cfg.QueriesPerJoin; i++ {
			pr, err := l.pair(j, i, noisep, balance)
			if err != nil {
				return nil, err
			}
			w.Pairs = append(w.Pairs, pr)
		}
	}
	return w, nil
}
