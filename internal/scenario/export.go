package scenario

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cqabench/internal/cq"
	"cqabench/internal/relation"
)

// Export writes a workload to a directory as a portable scenario artifact
// — the counterpart of the paper's published test scenarios. The layout:
//
//	manifest.txt   "# workload: <name>" and "# axis: <axis>" lines, then
//	               one line per pair: file|noise|balance|target|joins|query
//	schema.txt     the schema in the DSL (shared by all pairs)
//	pair_000.db    the pair's database in the text format
//	...
//
// Databases are deduplicated: pairs sharing a database reference the same
// file.
func Export(w *Workload, dir string) error {
	if len(w.Pairs) == 0 {
		return fmt.Errorf("scenario: export of empty workload")
	}
	if w.Axis.Label() == "" {
		return fmt.Errorf("scenario: workload %q has unknown axis %q", w.Name, w.Axis)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	schema := w.Pairs[0].DB.Schema
	sf, err := os.Create(filepath.Join(dir, "schema.txt"))
	if err != nil {
		return err
	}
	if err := relation.WriteSchema(sf, schema); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}

	mf, err := os.Create(filepath.Join(dir, "manifest.txt"))
	if err != nil {
		return err
	}
	defer mf.Close()
	bw := bufio.NewWriter(mf)
	fmt.Fprintf(bw, "# workload: %s\n# axis: %s\n", w.Name, w.Axis)

	dbFiles := map[*relation.Database]string{}
	for _, pair := range w.Pairs {
		file, ok := dbFiles[pair.DB]
		if !ok {
			file = fmt.Sprintf("pair_%03d.db", len(dbFiles))
			dbFiles[pair.DB] = file
			f, err := os.Create(filepath.Join(dir, file))
			if err != nil {
				return err
			}
			if err := relation.WriteDB(f, pair.DB); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		query := pair.Query.Render(pair.DB.Dict)
		if strings.ContainsAny(query, "|\n") {
			return fmt.Errorf("scenario: query %q not representable in manifest", query)
		}
		fmt.Fprintf(bw, "%s|%g|%g|%g|%d|%s\n",
			file, pair.Noise, pair.Balance, pair.Target, pair.Joins, query)
	}
	return bw.Flush()
}

// Import reads a scenario directory written by Export.
func Import(dir string) (*Workload, error) {
	sf, err := os.Open(filepath.Join(dir, "schema.txt"))
	if err != nil {
		return nil, err
	}
	schema, err := relation.ParseSchema(sf)
	sf.Close()
	if err != nil {
		return nil, err
	}

	manifestPath := filepath.Join(dir, "manifest.txt")
	mf, err := os.Open(manifestPath)
	if err != nil {
		return nil, err
	}
	defer mf.Close()

	w := &Workload{Name: filepath.Base(dir)}
	dbCache := map[string]*relation.Database{}
	sc := bufio.NewScanner(mf)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# workload: ") {
			w.Name = strings.TrimPrefix(line, "# workload: ")
			continue
		}
		if strings.HasPrefix(line, "# axis: ") {
			w.Axis = Axis(strings.TrimPrefix(line, "# axis: "))
			if w.Axis.Label() == "" {
				return nil, fmt.Errorf("scenario: %s line %d: unknown axis %q (want noise, balance or joins)", manifestPath, lineNo, w.Axis)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, "|", 6)
		if len(fields) != 6 {
			return nil, fmt.Errorf("scenario: manifest line %d: want 6 fields, got %d", lineNo, len(fields))
		}
		db, ok := dbCache[fields[0]]
		if !ok {
			f, err := os.Open(filepath.Join(dir, fields[0]))
			if err != nil {
				return nil, err
			}
			db, err = relation.ReadDB(f, schema)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("scenario: %s: %w", fields[0], err)
			}
			dbCache[fields[0]] = db
		}
		var noise, balance, target float64
		var joins int
		if _, err := fmt.Sscanf(fields[1], "%g", &noise); err != nil {
			return nil, fmt.Errorf("scenario: manifest line %d: bad noise: %w", lineNo, err)
		}
		if _, err := fmt.Sscanf(fields[2], "%g", &balance); err != nil {
			return nil, fmt.Errorf("scenario: manifest line %d: bad balance: %w", lineNo, err)
		}
		if _, err := fmt.Sscanf(fields[3], "%g", &target); err != nil {
			return nil, fmt.Errorf("scenario: manifest line %d: bad target: %w", lineNo, err)
		}
		if _, err := fmt.Sscanf(fields[4], "%d", &joins); err != nil {
			return nil, fmt.Errorf("scenario: manifest line %d: bad joins: %w", lineNo, err)
		}
		q, err := cq.Parse(fields[5], db.Dict)
		if err != nil {
			return nil, fmt.Errorf("scenario: manifest line %d: %w", lineNo, err)
		}
		if err := q.Validate(schema); err != nil {
			return nil, fmt.Errorf("scenario: manifest line %d: %w", lineNo, err)
		}
		w.Pairs = append(w.Pairs, Pair{
			Name:    fmt.Sprintf("%s#%d", fields[0], lineNo),
			DB:      db,
			Query:   q,
			Noise:   noise,
			Balance: balance,
			Target:  target,
			Joins:   joins,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if w.Axis == "" {
		return nil, fmt.Errorf("scenario: %s has no \"# axis:\" line", manifestPath)
	}
	if len(w.Pairs) == 0 {
		return nil, fmt.Errorf("scenario: manifest declares no pairs")
	}
	return w, nil
}
