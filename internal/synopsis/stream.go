package synopsis

import (
	"context"
	"errors"

	"cqabench/internal/cq"
	"cqabench/internal/relation"
)

// ErrStop may be returned by a Stream callback to end streaming early.
var ErrStop = errors.New("synopsis: stop streaming")

// Stream is the bounded-memory variant of Build from the remark in
// Appendix C: instead of materializing the whole set syn_{Σ,Q}(D), it
// runs Build's grouping pass and hands fn one encoded (Σ,Q)-synopsis at
// a time. Only one Admissible pair is alive per callback, so the peak
// memory is the homomorphism records (and one key per distinct image)
// plus the largest single synopsis, not the sum of all synopses. The
// emitted entries arrive in ascending tuple order and equal Build's.
func Stream(db *relation.Database, q *cq.Query, fn func(Entry) error) error {
	_, err := group(context.Background(), db, q, fn)
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}
