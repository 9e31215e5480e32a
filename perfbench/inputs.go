package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"cqabench/internal/cq"
	"cqabench/internal/cqa"
	"cqabench/internal/engine"
	"cqabench/internal/qgen"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
	"cqabench/internal/syncache"
	"cqabench/internal/synopsis"
)

// inputsJSON pins every workload's inputs: content hashes and shapes of
// the databases, queries and synopses, and the serve-mixed query table.
// A run fails at set-up when what it generated differs, so a change to
// a generator cannot silently swap a workload. `perfbench
// --write-inputs` regenerates the file.
//
//go:embed inputs.json
var inputsJSON []byte

// pin identifies one input: a database, a query over it and the
// synopsis set the query yields.
type pin struct {
	Name     string `json:"name"`     // the workload, or the instance of a serve-table entry
	DB       string `json:"db"`       // sha256 of relation.WriteDB
	Query    string `json:"query"`    // the query rendered over the database's dictionary
	Synopsis string `json:"synopsis"` // sha256 of the syncache encoding
	Tuples   int    `json:"tuples"`
	Images   int    `json:"images"` // Σ |H| over the answer tuples
	Blocks   int    `json:"blocks"` // Σ |B| over the answer tuples
	Bytes    int    `json:"bytes"`  // syncache.EncodedSize
}

// errPin marks a generated input that differs from its pin.
var errPin = errors.New("input pin mismatch")

// pinnedInputs returns the committed pins by workload.
func pinnedInputs() (map[string][]pin, error) {
	var m map[string][]pin
	if err := json.Unmarshal(inputsJSON, &m); err != nil {
		return nil, fmt.Errorf("inputs.json: %w", err)
	}
	return m, nil
}

// checkPins compares what a run generated with the committed pins.
func checkPins(workload string, got []pin) error {
	all, err := pinnedInputs()
	if err != nil {
		return err
	}
	want := all[workload]
	if len(got) != len(want) {
		return fmt.Errorf("%w: %s has %d inputs, %d pinned", errPin, workload, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%w: %s input %d:\n  generated %+v\n  pinned    %+v", errPin, workload, i, got[i], want[i])
		}
	}
	return nil
}

// hashDB hashes a database's canonical text form.
func hashDB(db *relation.Database) string {
	h := sha256.New()
	if err := relation.WriteDB(h, db); err != nil {
		panic(err) // a hash never fails to write
	}
	return hex.EncodeToString(h.Sum(nil))
}

// observePin records a set's pin; dbHash is hashDB(db). It also
// returns the set's syncache encoding.
func observePin(name, dbHash string, db *relation.Database, q *cq.Query, set *synopsis.Set) (pin, []byte) {
	var buf bytes.Buffer
	if err := syncache.Encode(&buf, set); err != nil {
		panic(err) // encoding into memory never fails
	}
	sum := sha256.Sum256(buf.Bytes())
	p := pin{
		Name:     name,
		DB:       dbHash,
		Query:    q.Render(db.Dict),
		Synopsis: hex.EncodeToString(sum[:]),
		Tuples:   len(set.Entries),
		Bytes:    buf.Len(),
	}
	for _, e := range set.Entries {
		p.Images += e.Pair.NumImages()
		p.Blocks += e.Pair.NumBlocks()
	}
	return p, buf.Bytes()
}

// serveInstance is one instance of the serve-mixed workload: the Lab's
// noisy database of base query (joins, index).
type serveInstance struct {
	name         string
	joins, index int
}

var serveInstances = []serveInstance{
	{"j1i0", 1, 0}, {"j1i1", 1, 1},
	{"j2i0", 2, 0}, {"j2i1", 2, 1},
	{"j3i0", 3, 0}, {"j3i1", 3, 1},
}

// The serve table's selection rule, by synopsis shape only: SQG
// queries with 1 to maxServeTuples answer tuples, none with more than
// maxServeImages images, perInstance of them per instance. Few images
// per tuple keep an estimate at a few thousand draws per tuple, so the
// service's own work stays a visible share of a request.
const (
	maxServeTuples = 64
	maxServeImages = 2
	perInstance    = 8
	// maxServeHoms skips a candidate before building its synopsis when
	// it has more homomorphisms, which keeps generation small.
	maxServeHoms = 4096
)

// generateServeTable draws seeded SQG queries over each instance and
// keeps those whose synopsis has the selected shape. The table lists
// the instances round-robin, so the popular head spans all of them.
func generateServeTable(lab *scenario.Lab) ([]pin, error) {
	byInstance := make([][]pin, len(serveInstances))
	for k, in := range serveInstances {
		db, err := lab.NoisyDB(in.joins, in.index, noiseP)
		if err != nil {
			return nil, err
		}
		dbHash := hashDB(db)
		pool := qgen.BuildConstPool(db, 24)
		ev := engine.NewEvaluator(db)
		seen := map[string]bool{}
		for n := 0; len(byInstance[k]) < perInstance && n < 2000; n++ {
			q, err := qgen.SQGNonEmpty(db, pool, qgen.SQGConfig{
				Joins:      n % 3,
				Constants:  1 + (n/3)%2,
				Projection: []float64{0.1, 0.25, 0.5}[(n/6)%3],
				Seed:       uint64(1000*(k+1) + n),
			}, 10)
			if err != nil {
				continue
			}
			text := q.Render(db.Dict)
			if seen[text] {
				continue
			}
			seen[text] = true
			if _, within, err := ev.CountHomomorphismsUpTo(q, maxServeHoms); err != nil || !within {
				continue
			}
			set, err := synopsis.Build(db, q)
			if err != nil || !servable(set) {
				continue
			}
			if _, err := cqa.ExactAnswersFromSet(set, 0); err != nil {
				continue
			}
			p, _ := observePin(in.name, dbHash, db, q, set)
			byInstance[k] = append(byInstance[k], p)
		}
		if len(byInstance[k]) < perInstance {
			return nil, fmt.Errorf("instance %s: only %d servable queries", in.name, len(byInstance[k]))
		}
	}
	var out []pin
	for i := 0; i < perInstance; i++ {
		for k := range serveInstances {
			out = append(out, byInstance[k][i])
		}
	}
	return out, nil
}

// servable is the serve table's shape rule.
func servable(set *synopsis.Set) bool {
	if len(set.Entries) == 0 || len(set.Entries) > maxServeTuples {
		return false
	}
	for _, e := range set.Entries {
		if e.Pair.NumImages() > maxServeImages {
			return false
		}
	}
	return true
}

// writePinnedInputs regenerates inputs.json.
func writePinnedInputs(w io.Writer) error {
	out := map[string][]pin{}
	for _, name := range []string{"boolean-wide", "many-tuples"} {
		d, _, _, err := setupLibrary(libSpecs[name], nil)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		p, _ := observePin(name, hashDB(d.db), d.db, d.q, d.set)
		out[name] = []pin{p}
	}
	lab, err := scenario.NewLab(labConfig())
	if err != nil {
		return err
	}
	tbl, err := generateServeTable(lab)
	if err != nil {
		return fmt.Errorf("serve-mixed: %w", err)
	}
	out["serve-mixed"] = tbl
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
