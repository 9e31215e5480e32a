package cqabench

import (
	"context"
	"io"

	"cqabench/internal/cq"
	"cqabench/internal/cqa"
	"cqabench/internal/engine"
	"cqabench/internal/relation"
	"cqabench/internal/syncache"
	"cqabench/internal/synopsis"
)

// This file extends the root API with the library's second tier:
// synopses, automatic scheme selection, streaming, serialization, schema
// DSL, and CQ reasoning. The core flows live in cqabench.go.
//
// Approximation is two calls: BuildSynopsisContext runs the
// preprocessing step once, and ApproximateContext runs one scheme over
// the result. Both poll ctx — cancellation is observed within about one
// 256-draw chunk and reported wrapping ErrCanceled — and
// ApproximateContext validates Options up front (ErrInvalidOptions). A
// live context never perturbs an estimate, a sample count or the PRNG
// stream position.

// Synopsis is the encoded (Σ,Q)-synopsis set of a database-query pair:
// one admissible pair per answer tuple with positive relative frequency.
type Synopsis = synopsis.Set

// BuildSynopsisContext runs the preprocessing step of Section 5: it
// computes the synopsis of every answer tuple in one pass over the
// homomorphisms, polling ctx periodically so a caller can abandon an
// expensive build. Reuse the result across schemes — that is the point
// of the step.
func BuildSynopsisContext(ctx context.Context, db *Database, q *Query) (*Synopsis, error) {
	return synopsis.BuildContext(ctx, db, q)
}

// ApproximateContext runs ApxCQA[scheme] over a prebuilt synopsis: one
// relative-frequency estimation per answer tuple. ctx is the run's only
// deadline: the run stops within about one sampling chunk when ctx is
// canceled or its deadline expires, and before any draw when ctx is
// already done (the error then wraps ErrCanceled). Invalid opts are
// rejected with ErrInvalidOptions before any sampling; a tuple past the
// Options.Budget sample cap fails with ErrBudget. Options.TupleWorkers
// fans the tuples over a pool and Options.SamplingWorkers each tuple's
// draws; results are deterministic for a fixed seed whatever the pool
// sizes.
func ApproximateContext(ctx context.Context, set *Synopsis, scheme Scheme, opts Options) ([]TupleFreq, Stats, error) {
	return cqa.ApxAnswersFromSetContext(ctx, set, scheme, opts)
}

// SelectScheme picks the indicated scheme for a synopsis per the paper's
// take-home messages: Natural for Boolean / near-zero-balance queries,
// KLM otherwise. Pass its pick to ApproximateContext.
func SelectScheme(set *Synopsis) Scheme { return cqa.SelectScheme(set) }

// StreamSynopses emits one entry (answer tuple + admissible pair) at a
// time in ascending tuple order, holding only one encoded synopsis alive
// per callback (the bounded-memory remark of Appendix C). Return
// SynopsisStop from the callback to end early.
func StreamSynopses(db *Database, q *Query, fn func(SynopsisEntry) error) error {
	return synopsis.Stream(db, q, fn)
}

// SynopsisEntry is one answer tuple with its encoded synopsis.
type SynopsisEntry = synopsis.Entry

// SynopsisStop ends StreamSynopses early without error.
var SynopsisStop = synopsis.ErrStop

// EncodeSynopsis writes a synopsis in the versioned binary codec
// (magic "CQSY"; see docs/FORMATS.md). The encoding is canonical:
// encoding the same synopsis always yields the same bytes.
func EncodeSynopsis(w io.Writer, set *Synopsis) error { return syncache.Encode(w, set) }

// DecodeSynopsis reads a synopsis previously written by EncodeSynopsis,
// verifying magic, version, framing and checksum, then validating the
// structural invariants of every admissible pair.
func DecodeSynopsis(r io.Reader) (*Synopsis, error) { return syncache.Decode(r) }

// SynopsisCache is a content-addressed on-disk store of encoded
// synopses, used by the benchmark harness to skip re-building synopses
// for unchanged (scenario, query) pairs across runs.
type SynopsisCache = syncache.Cache

// OpenSynopsisCache opens a synopsis cache rooted at dir. Mode is the
// CLI spelling: "rw" (load and store), "ro" (load only) or "off".
func OpenSynopsisCache(dir, mode string) (*SynopsisCache, error) {
	m, err := syncache.ParseMode(mode)
	if err != nil {
		return nil, err
	}
	return syncache.Open(dir, m)
}

// WriteDatabase serializes a database in the library's line-oriented text
// format; ReadDatabase parses it back over the same schema.
func WriteDatabase(w io.Writer, db *Database) error { return relation.WriteDB(w, db) }

// ReadDatabase parses a database previously written by WriteDatabase.
func ReadDatabase(r io.Reader, s *Schema) (*Database, error) { return relation.ReadDB(r, s) }

// ParseSchema reads a schema from the text DSL:
//
//	relation Employee(id*, name, dept)
//	fk Employee(dept) -> Dept(name)
func ParseSchema(r io.Reader) (*Schema, error) { return relation.ParseSchema(r) }

// ParseSchemaString is ParseSchema over a string.
func ParseSchemaString(s string) (*Schema, error) { return relation.ParseSchemaString(s) }

// WriteSchema renders a schema back into the DSL.
func WriteSchema(w io.Writer, s *Schema) error { return relation.WriteSchema(w, s) }

// Contained decides classic CQ containment q1 ⊆ q2 over db's schema and
// dictionary (Chandra–Merlin).
func Contained(db *Database, q1, q2 *Query) (bool, error) {
	return engine.Contained(db.Schema, db.Dict, q1, q2)
}

// EquivalentQueries reports whether two CQs are semantically equivalent.
func EquivalentQueries(db *Database, q1, q2 *Query) (bool, error) {
	return engine.Equivalent(db.Schema, db.Dict, q1, q2)
}

// MinimizeQuery returns an equivalent subquery with a minimal atom set
// (the core, up to renaming).
func MinimizeQuery(db *Database, q *Query) (*Query, error) {
	return engine.Minimize(db.Schema, db.Dict, q)
}

// Answers evaluates Q(D) classically (ignoring inconsistency): the
// distinct answer tuples over the database as-is.
func Answers(db *Database, q *Query) ([]Tuple, error) {
	return engine.NewEvaluator(db).Answers(q)
}

// compile-time re-export checks: the aliases must track the internal types.
var (
	_ = cq.Query{}
	_ = relation.Tuple{}
)
