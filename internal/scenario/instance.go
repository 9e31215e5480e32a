package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"

	"cqabench/internal/cq"
	"cqabench/internal/noise"
	"cqabench/internal/relation"
	"cqabench/internal/tpcds"
	"cqabench/internal/tpch"
)

// This file is the named-instance construction layer behind the
// estimation service's registry: an InstanceSpec declares one database
// instance (generated benchmark data, optionally noised, or a database
// file on disk), a manifest file lists many, and Build turns a spec
// into the concrete relation.Database the service serves. The spec's
// Fingerprint doubles as the per-instance synopsis-cache key prefix, so
// two instances built from identical specs share syncache entries while
// differently-built instances never collide.

// NoiseSpec is the optional noise-injection step of an InstanceSpec,
// mirroring `cqabench noise`: query-aware primary-key noise (the
// paper's Section 6.2 scenario construction) unless Oblivious is set.
type NoiseSpec struct {
	// Query is the conjunctive query the noise should affect. Required
	// unless Oblivious.
	Query string `json:"query,omitempty"`
	// Oblivious injects query-oblivious noise over the whole database.
	Oblivious bool `json:"oblivious,omitempty"`
	// P is the noise percentage in (0, 1]. Required.
	P float64 `json:"p"`
	// MinBlock and MaxBlock bound non-singleton block sizes; 0 selects
	// the `cqabench noise` defaults (2 and 5).
	MinBlock int `json:"min_block,omitempty"`
	MaxBlock int `json:"max_block,omitempty"`
	// Seed is the noise PRNG seed; 0 selects 1.
	Seed uint64 `json:"seed,omitempty"`
}

// InstanceSpec declares one named database instance for the estimation
// service: either a generated benchmark database (Benchmark at
// ScaleFactor / Seed, optionally noised per Noise) or a database text
// file (Path, with the schema from Benchmark or SchemaPath). The JSON
// form is the instance-manifest entry format documented in
// docs/FORMATS.md.
type InstanceSpec struct {
	// Name addresses the instance in every service request. Required;
	// letters, digits, and ._- only (it appears in URLs, metric labels
	// and cache keys).
	Name string `json:"name"`
	// Benchmark is the schema and generator family: "tpch" (default) or
	// "tpcds".
	Benchmark string `json:"benchmark,omitempty"`
	// ScaleFactor and Seed parameterize generation, so they must be
	// zero when Path is given. Zero values select 0.001 and 1.
	ScaleFactor float64 `json:"sf,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	// Path is a database text file to load instead of generating; the
	// schema comes from Benchmark unless SchemaPath is set.
	Path string `json:"path,omitempty"`
	// SchemaPath is a schema DSL file overriding the built-in Benchmark
	// schema for Path loading.
	SchemaPath string `json:"schema,omitempty"`
	// Noise optionally injects inconsistency after generation/loading.
	Noise *NoiseSpec `json:"noise,omitempty"`
	// Weight is the instance's deficit-round-robin scheduling weight on
	// the estimation service (0 selects the default weight 1). Like
	// Quota, it is admission policy, not content: neither participates
	// in Fingerprint, so retuning an instance never invalidates its
	// cached synopses.
	Weight int `json:"weight,omitempty"`
	// Quota optionally bounds the instance's request rate, sampling
	// work and concurrency (see QuotaSpec). Nil defers to the service's
	// default quota, if any.
	Quota *QuotaSpec `json:"quota,omitempty"`
}

// instanceNameRE bounds instance names: they ride in URL path segments,
// Prometheus label values and syncache key prefixes.
var instanceNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ValidInstanceName reports whether name is usable as an instance name
// (1-64 chars of [A-Za-z0-9._-], not starting with a punctuation rune).
func ValidInstanceName(name string) bool { return instanceNameRE.MatchString(name) }

// Validate rejects specs that cannot produce an instance: a missing or
// malformed name, an unknown benchmark, out-of-range generation or
// noise parameters, generation parameters (sf, seed) beside a database
// path, or a noise step with neither a query nor the oblivious flag.
func (s *InstanceSpec) Validate() error {
	if !ValidInstanceName(s.Name) {
		return fmt.Errorf("scenario: invalid instance name %q (want 1-64 chars of [A-Za-z0-9._-], starting with an alphanumeric)", s.Name)
	}
	switch s.Benchmark {
	case "", "tpch", "tpcds":
	default:
		return fmt.Errorf("scenario: instance %q: unknown benchmark %q (want tpch or tpcds)", s.Name, s.Benchmark)
	}
	if s.ScaleFactor < 0 {
		return fmt.Errorf("scenario: instance %q: negative scale factor %g", s.Name, s.ScaleFactor)
	}
	if s.Path == "" && s.SchemaPath != "" {
		return fmt.Errorf("scenario: instance %q: schema override requires a database path", s.Name)
	}
	if s.Path != "" && (s.ScaleFactor != 0 || s.Seed != 0) {
		return fmt.Errorf("scenario: instance %q: a database path excludes sf and seed, which only parameterize generation", s.Name)
	}
	if n := s.Noise; n != nil {
		if n.P <= 0 || n.P > 1 {
			return fmt.Errorf("scenario: instance %q: noise p = %g outside (0, 1]", s.Name, n.P)
		}
		if !n.Oblivious && n.Query == "" {
			return fmt.Errorf("scenario: instance %q: noise needs a query (or oblivious: true)", s.Name)
		}
		if n.MinBlock < 0 || n.MaxBlock < 0 || (n.MaxBlock > 0 && n.MinBlock > n.MaxBlock) {
			return fmt.Errorf("scenario: instance %q: bad noise block bounds [%d, %d]", s.Name, n.MinBlock, n.MaxBlock)
		}
	}
	if err := ValidateWeight(s.Weight); err != nil {
		return fmt.Errorf("scenario: instance %q: %w", s.Name, err)
	}
	if s.Quota != nil {
		if err := s.Quota.Validate(); err != nil {
			return fmt.Errorf("scenario: instance %q: %w", s.Name, err)
		}
	}
	return nil
}

// withDefaults returns a copy with every zero field resolved, so
// Fingerprint and Build agree on what actually runs.
func (s *InstanceSpec) withDefaults() InstanceSpec {
	out := *s
	if out.Benchmark == "" {
		out.Benchmark = "tpch"
	}
	if out.Path == "" {
		if out.ScaleFactor == 0 {
			out.ScaleFactor = 0.001
		}
		if out.Seed == 0 {
			out.Seed = 1
		}
	}
	if out.Noise != nil {
		n := *out.Noise
		if n.MinBlock == 0 {
			n.MinBlock = 2
		}
		if n.MaxBlock == 0 {
			n.MaxBlock = 5
		}
		if n.Seed == 0 {
			n.Seed = 1
		}
		out.Noise = &n
	}
	return out
}

// Fingerprint is a stable string identifying the instance's contents —
// every parameter that determines the built database, but not the
// instance name (renaming an instance must not invalidate its cached
// synopses) and not the admission policy (Weight/Quota retuning must
// not either). It is the syncache key prefix for the instance. For
// file-backed instances the path stands in for the contents; serving a
// changed file under the same path from a shared cache directory is an
// operator error (documented in docs/REGISTRY.md).
func (s *InstanceSpec) Fingerprint() string {
	d := s.withDefaults()
	fp := ""
	if d.Path != "" {
		fp = fmt.Sprintf("file:%s:bench=%s:schema=%s", d.Path, d.Benchmark, d.SchemaPath)
	} else {
		fp = fmt.Sprintf("gen:%s:sf=%g:seed=%d", d.Benchmark, d.ScaleFactor, d.Seed)
	}
	if n := d.Noise; n != nil {
		fp += fmt.Sprintf(":noise=%g:q=%s:obl=%t:blocks=%d-%d:nseed=%d",
			n.P, n.Query, n.Oblivious, n.MinBlock, n.MaxBlock, n.Seed)
	}
	return fp
}

// Build constructs the instance's database: generate or load, then
// optionally inject noise. Pure with respect to the spec — identical
// specs build identical databases (file-backed instances aside).
func (s *InstanceSpec) Build() (*relation.Database, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	d := s.withDefaults()
	db, err := d.baseDatabase()
	if err != nil {
		return nil, fmt.Errorf("scenario: instance %q: %w", s.Name, err)
	}
	if n := d.Noise; n != nil {
		cfg := noise.Config{P: n.P, MinBlock: n.MinBlock, MaxBlock: n.MaxBlock, Seed: n.Seed}
		if n.Oblivious {
			db, _, err = noise.ApplyOblivious(db, cfg)
		} else {
			var q *cq.Query
			if q, err = cq.Parse(n.Query, db.Dict); err == nil {
				db, _, err = noise.Apply(db, q, cfg)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: instance %q: noise: %w", s.Name, err)
		}
	}
	return db, nil
}

// baseDatabase resolves the pre-noise database of a defaulted spec.
func (s *InstanceSpec) baseDatabase() (*relation.Database, error) {
	if s.Path != "" {
		schema, err := s.schema()
		if err != nil {
			return nil, err
		}
		f, err := os.Open(s.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return relation.ReadDB(f, schema)
	}
	switch s.Benchmark {
	case "tpch":
		return tpch.Generate(tpch.Config{ScaleFactor: s.ScaleFactor, Seed: s.Seed})
	case "tpcds":
		return tpcds.Generate(tpcds.Config{ScaleFactor: s.ScaleFactor, Seed: s.Seed})
	}
	return nil, fmt.Errorf("unknown benchmark %q", s.Benchmark)
}

// schema resolves the schema for a file-backed spec.
func (s *InstanceSpec) schema() (*relation.Schema, error) {
	if s.SchemaPath != "" {
		f, err := os.Open(s.SchemaPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return relation.ParseSchema(f)
	}
	switch s.Benchmark {
	case "tpch":
		return tpch.Schema(), nil
	case "tpcds":
		return tpcds.Schema(), nil
	}
	return nil, fmt.Errorf("unknown benchmark %q", s.Benchmark)
}

// InstanceManifest is the instance-manifest file format: the JSON
// document `cqabench serve -instances manifest.json` loads at startup.
// The format is documented with a worked example in docs/FORMATS.md
// and docs/REGISTRY.md.
type InstanceManifest struct {
	Instances []InstanceSpec `json:"instances"`
}

// ParseInstanceManifest reads and validates a manifest: strict JSON
// (unknown fields rejected, catching typos like "scalefactor", and
// nothing but whitespace after the document), at least one instance, no
// duplicate names, every spec valid.
func ParseInstanceManifest(r io.Reader) ([]InstanceSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var m InstanceManifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("scenario: instance manifest: %w", err)
	}
	if dec.Decode(&struct{}{}) != io.EOF {
		return nil, fmt.Errorf("scenario: instance manifest: data after the JSON document")
	}
	if len(m.Instances) == 0 {
		return nil, fmt.Errorf("scenario: instance manifest declares no instances")
	}
	seen := make(map[string]bool, len(m.Instances))
	for i := range m.Instances {
		spec := &m.Instances[i]
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("scenario: instance manifest: duplicate instance name %q", spec.Name)
		}
		seen[spec.Name] = true
	}
	return m.Instances, nil
}

// LoadInstanceManifest is ParseInstanceManifest over a file path.
func LoadInstanceManifest(path string) ([]InstanceSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: instance manifest: %w", err)
	}
	defer f.Close()
	return ParseInstanceManifest(f)
}
