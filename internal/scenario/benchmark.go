package scenario

import (
	"fmt"
	"os"

	"cqabench/internal/relation"
	"cqabench/internal/tpcds"
	"cqabench/internal/tpch"
)

// benchmark is what a benchmark name stands for: a schema, a generator
// of consistent databases over it, and the validation queries of
// Appendix F.
type benchmark struct {
	schema     func() *relation.Schema
	generate   func(sf float64, seed uint64) (*relation.Database, error)
	validation func() []ValidationQuery
}

// benchmarks holds every name a -benchmark flag or an instance spec
// accepts.
var benchmarks = map[string]benchmark{
	"tpch": {tpch.Schema, func(sf float64, seed uint64) (*relation.Database, error) {
		return tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: seed})
	}, TPCHValidationQueries},
	"tpcds": {tpcds.Schema, func(sf float64, seed uint64) (*relation.Database, error) {
		return tpcds.Generate(tpcds.Config{ScaleFactor: sf, Seed: seed})
	}, TPCDSValidationQueries},
}

func lookupBenchmark(name string) (benchmark, error) {
	b, ok := benchmarks[name]
	if !ok {
		return b, fmt.Errorf("unknown benchmark %q (want tpch or tpcds)", name)
	}
	return b, nil
}

// GenerateDB generates the named benchmark's ("tpch" or "tpcds")
// consistent database at scale factor sf.
func GenerateDB(name string, sf float64, seed uint64) (*relation.Database, error) {
	b, err := lookupBenchmark(name)
	if err != nil {
		return nil, err
	}
	return b.generate(sf, seed)
}

// LoadDB reads the database text file at path in the schema of the
// schema DSL file at schemaPath, or, when schemaPath is empty, of the
// named benchmark.
func LoadDB(path, name, schemaPath string) (*relation.Database, error) {
	var schema *relation.Schema
	if schemaPath != "" {
		f, err := os.Open(schemaPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if schema, err = relation.ParseSchema(f); err != nil {
			return nil, err
		}
	} else {
		b, err := lookupBenchmark(name)
		if err != nil {
			return nil, err
		}
		schema = b.schema()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return relation.ReadDB(f, schema)
}

// ValidationQueries returns the named benchmark's validation queries.
func ValidationQueries(name string) ([]ValidationQuery, error) {
	b, err := lookupBenchmark(name)
	if err != nil {
		return nil, err
	}
	return b.validation(), nil
}
