// Package cqabench is a benchmark and library for approximate consistent
// query answering (CQA) over inconsistent databases under primary key
// constraints, reproducing:
//
//	Marco Calautti, Marco Console, Andreas Pieris.
//	"Benchmarking Approximate Consistent Query Answering." PODS 2021.
//
// Given a database D that violates its primary keys, a repair is a maximal
// consistent subset of D (one fact kept per conflicting block). The
// consistent answer of a conjunctive query Q grades each candidate tuple
// by its relative frequency: the fraction of repairs in which the tuple is
// an answer. Computing it exactly is #P-hard, so the library implements
// the paper's four data-efficient randomized approximation schemes —
// Natural, KL, KLM and Cover — together with everything needed to
// benchmark them: TPC-H / TPC-DS-style data generators, a query-aware
// noise generator, static and dynamic query generators, scenario families
// and a measurement harness.
//
// This root package is the stable public surface; it re-exports the core
// types and wires together the most common flows. The subsystems live in
// internal packages documented in DESIGN.md. Approximation is one build
// call and one answer call, following the paper's Section 5:
// BuildSynopsisContext runs the preprocessing step once, and
// ApproximateContext runs a scheme over its result, one estimation per
// answer tuple. Both honor cancellation and deadlines — the answer call
// within about one sampling chunk — and report failures through the
// sentinel errors ErrBudget, ErrCanceled and ErrInvalidOptions.
//
// A minimal session:
//
//	db := cqabench.NewDatabase(cqabench.MustSchema([]cqabench.RelDef{
//		{Name: "Employee", Attrs: []string{"id", "name", "dept"}, KeyLen: 1},
//	}, nil))
//	db.MustInsert("Employee", 1, "Bob", "HR")
//	db.MustInsert("Employee", 1, "Bob", "IT")
//	q := cqabench.MustParseQuery("Q(d) :- Employee(1, n, d)", db)
//	ctx := context.Background()
//	set, err := cqabench.BuildSynopsisContext(ctx, db, q)
//	answers, _, err := cqabench.ApproximateContext(ctx, set, cqabench.KLM, cqabench.DefaultOptions())
package cqabench

import (
	"cqabench/internal/cq"
	"cqabench/internal/cqa"
	"cqabench/internal/noise"
	"cqabench/internal/qgen"
	"cqabench/internal/relation"
	"cqabench/internal/repair"
	"cqabench/internal/synopsis"
	"cqabench/internal/tpcds"
	"cqabench/internal/tpch"
)

// Core relational types (see internal/relation).
type (
	// Schema is a set of relation symbols with primary keys and an
	// optional foreign-key graph.
	Schema = relation.Schema
	// RelDef defines one relation: name, attributes, and key prefix
	// length (key(R) = {1..KeyLen}; 0 means no key).
	RelDef = relation.RelDef
	// ForeignKey declares a joinable column correspondence used by the
	// query generators.
	ForeignKey = relation.ForeignKey
	// Database is a finite set of facts over a schema.
	Database = relation.Database
	// Tuple is an ordered list of constants.
	Tuple = relation.Tuple
	// Value is an interned constant.
	Value = relation.Value
)

// Query types (see internal/cq).
type (
	// Query is a conjunctive query with answer variables.
	Query = cq.Query
	// Atom is a relational atom of a query body.
	Atom = cq.Atom
	// Term is a variable or constant inside an atom.
	Term = cq.Term
)

// Approximation types (see internal/cqa).
type (
	// Scheme selects one of the paper's approximation schemes.
	Scheme = cqa.Scheme
	// Options carries ε, δ, the PRNG seed, an optional budget and the
	// tuple and sampling pool settings.
	Options = cqa.Options
	// TupleFreq pairs an answer tuple with its relative frequency.
	TupleFreq = cqa.TupleFreq
	// Stats reports the work an approximation run performed.
	Stats = cqa.Stats
)

// The four approximation schemes of the paper.
const (
	// Natural samples repairs uniformly from the natural space db(B).
	Natural = cqa.Natural
	// KL samples from the symbolic space with the Karp–Luby sampler.
	KL = cqa.KL
	// KLM samples from the symbolic space with the Karp–Luby–Madras
	// sampler (lower variance, costlier samples).
	KLM = cqa.KLM
	// Cover runs the self-adjusting coverage algorithm.
	Cover = cqa.Cover
)

// Schemes lists all four schemes in the paper's order.
var Schemes = cqa.Schemes

// NewSchema validates and builds a schema.
func NewSchema(rels []RelDef, fks []ForeignKey) (*Schema, error) {
	return relation.NewSchema(rels, fks)
}

// MustSchema is NewSchema but panics on error.
func MustSchema(rels []RelDef, fks []ForeignKey) *Schema {
	return relation.MustSchema(rels, fks)
}

// NewDatabase returns an empty database over the schema.
func NewDatabase(s *Schema) *Database { return relation.NewDatabase(s) }

// IsConsistent reports whether the database satisfies its primary keys.
func IsConsistent(db *Database) bool { return relation.IsConsistentDB(db) }

// ParseQuery parses a conjunctive query in the syntax
// "Q(x, y) :- R(x, 'a', y), S(y, 42)"; constants are interned into the
// database's dictionary and the query is validated against its schema.
func ParseQuery(text string, db *Database) (*Query, error) {
	q, err := cq.Parse(text, db.Dict)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(db.Schema); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParseQuery is ParseQuery but panics on error.
func MustParseQuery(text string, db *Database) *Query {
	q, err := ParseQuery(text, db)
	if err != nil {
		panic(err)
	}
	return q
}

// DefaultOptions returns the paper's experimental setting: ε = 0.1,
// δ = 0.25, MT19937-64 with its reference seed.
func DefaultOptions() Options { return cqa.DefaultOptions() }

// ExactAnswers computes the exact consistent answer from each tuple's
// synopsis with one exact count per tuple, which simplifies the synopsis
// and compiles what is left; it fails on a tuple whose compilation
// exceeds 2^20 nodes.
func ExactAnswers(db *Database, q *Query) ([]TupleFreq, error) {
	return cqa.ExactAnswers(db, q)
}

// CertainAnswers returns the classic CQA certain answers: tuples true in
// every repair. It fails as ExactAnswers does.
func CertainAnswers(db *Database, q *Query) ([]Tuple, error) {
	return cqa.CertainAnswers(db, q)
}

// CountRepairs returns |rep(D, Σ)| as a decimal string (the count is
// exponential in the number of conflicts).
func CountRepairs(db *Database) string { return repair.Count(db).String() }

// NoiseConfig parameterizes query-aware noise injection.
type NoiseConfig = noise.Config

// ApplyNoise injects query-aware primary-key violations into a consistent
// database: the fraction cfg.P of the query-relevant facts get their
// blocks grown to uniform sizes in [cfg.MinBlock, cfg.MaxBlock], with
// join-pattern-preserving fresh facts.
func ApplyNoise(db *Database, q *Query, cfg NoiseConfig) (*Database, error) {
	noisy, _, err := noise.Apply(db, q, cfg)
	return noisy, err
}

// DefaultNoise mirrors the paper's setting: block sizes in [2, 5].
func DefaultNoise(p float64) NoiseConfig { return noise.DefaultConfig(p) }

// GenerateTPCH generates a consistent TPC-H-style database. ScaleFactor 1
// corresponds to the official 1 GB row counts.
func GenerateTPCH(scaleFactor float64, seed uint64) (*Database, error) {
	return tpch.Generate(tpch.Config{ScaleFactor: scaleFactor, Seed: seed})
}

// GenerateTPCDS generates a consistent TPC-DS-style snowflake database.
func GenerateTPCDS(scaleFactor float64, seed uint64) (*Database, error) {
	return tpcds.Generate(tpcds.Config{ScaleFactor: scaleFactor, Seed: seed})
}

// TPCHSchema returns the TPC-H schema with its primary keys and FK graph.
func TPCHSchema() *Schema { return tpch.Schema() }

// TPCDSSchema returns the TPC-DS subset schema.
func TPCDSSchema() *Schema { return tpcds.Schema() }

// GenerateQuery runs the static query generator: a self-join-free CQ over
// db's schema with the given number of joins and constant occurrences and
// the given projection fraction, guaranteed non-empty over db.
func GenerateQuery(db *Database, joins, constants int, projection float64, seed uint64) (*Query, error) {
	pool := qgen.BuildConstPool(db, 24)
	return qgen.SQGNonEmpty(db, pool, qgen.SQGConfig{
		Joins:      joins,
		Constants:  constants,
		Projection: projection,
		Seed:       seed,
	}, 100)
}

// BalanceOf computes the paper's balance of q w.r.t. db: the inverse of
// the average number of homomorphic images per answer tuple, in [0, 1].
func BalanceOf(db *Database, q *Query) (float64, error) {
	set, err := synopsis.Build(db, q)
	if err != nil {
		return 0, err
	}
	return set.Balance(), nil
}

// TuneBalance runs the dynamic query generator: it returns projections of
// q (same body, different answer variables) whose balance w.r.t. db is as
// close as possible to each target.
func TuneBalance(db *Database, q *Query, targets []float64, iterations int, seed uint64) ([]*Query, error) {
	res, err := qgen.DQG(db, q, targets, qgen.DQGConfig{Iterations: iterations, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([]*Query, len(res))
	for i, r := range res {
		out[i] = r.Query
	}
	return out, nil
}
