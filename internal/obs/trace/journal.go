package trace

import (
	"encoding/json"
	"io"
	"time"

	"cqabench/internal/obs"
)

// JournalEntry is one line of the JSONL event journal. The first line of
// a journal is a "manifest" entry carrying the run's provenance; every
// following line is a "span" entry in depth-first order, so the journal
// streams, greps and jq-filters naturally.
type JournalEntry struct {
	Type string `json:"type"` // "manifest" or "span"

	// Span fields.
	Name    string `json:"name,omitempty"`
	Path    string `json:"path,omitempty"` // slash-joined ancestry, e.g. "run/pair:x/cqa.KLM"
	Depth   int    `json:"depth,omitempty"`
	StartUS int64  `json:"start_us,omitempty"` // microseconds since the journal base
	DurUS   int64  `json:"dur_us,omitempty"`   // microseconds

	// Manifest fields.
	Base     string          `json:"base_time,omitempty"` // absolute origin, RFC3339Nano
	Manifest json.RawMessage `json:"manifest,omitempty"`
}

// WriteJournal writes a manifest line followed by one span line per node
// of each tree, depth-first. manifest may be nil (the header line then
// only carries the base time).
func WriteJournal(w io.Writer, manifest any, roots []obs.SpanData) error {
	enc := json.NewEncoder(w)
	base := baseTime(roots)
	head := JournalEntry{Type: "manifest"}
	if !base.IsZero() {
		head.Base = base.UTC().Format(time.RFC3339Nano)
	}
	if manifest != nil {
		raw, err := json.Marshal(manifest)
		if err != nil {
			return err
		}
		head.Manifest = raw
	}
	if err := enc.Encode(head); err != nil {
		return err
	}
	for _, r := range roots {
		if err := writeJournalSpan(enc, r, base, "", 0); err != nil {
			return err
		}
	}
	return nil
}

func writeJournalSpan(enc *json.Encoder, s obs.SpanData, base time.Time, parentPath string, depth int) error {
	path := s.Name
	if parentPath != "" {
		path = parentPath + "/" + s.Name
	}
	err := enc.Encode(JournalEntry{
		Type:    "span",
		Name:    s.Name,
		Path:    path,
		Depth:   depth,
		StartUS: s.Start.Sub(base).Microseconds(),
		DurUS:   s.Duration().Microseconds(),
	})
	if err != nil {
		return err
	}
	for _, c := range s.Children {
		if err := writeJournalSpan(enc, c, base, path, depth+1); err != nil {
			return err
		}
	}
	return nil
}
