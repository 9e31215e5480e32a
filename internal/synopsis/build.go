package synopsis

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cqabench/internal/cq"
	"cqabench/internal/cqaerr"
	"cqabench/internal/engine"
	"cqabench/internal/obs"
	"cqabench/internal/relation"
)

// Entry pairs one answer tuple t̄ (with R_{D,Σ,Q}(t̄) > 0) with its encoded
// (Σ,Q)-synopsis and, for the benefit of the noise generator, the database
// facts occurring in the synopsis' homomorphic images.
type Entry struct {
	Tuple relation.Tuple
	Pair  *Admissible
	Facts []relation.FactRef // distinct facts of ∪H, sorted
}

// Set is the paper's syn_{Σ,Q}(D): one entry per answer tuple with
// positive relative frequency, computed in a single pass over all
// homomorphisms (the preprocessing step of Section 5).
type Set struct {
	Entries []Entry
	// HomomorphicSize is |∪_i H_i|: the number of distinct consistent
	// homomorphic images across all entries (the paper's "homomorphic
	// size of Q w.r.t. D" dynamic parameter).
	HomomorphicSize int
}

// OutputSize returns |syn_{Σ,Q}(D)| = |Q(D) restricted to frequency > 0|.
func (s *Set) OutputSize() int { return len(s.Entries) }

// Balance returns the paper's balance of Q w.r.t. D: the inverse of the
// average synopsis size, |syn| / |∪H_i|, in [0, 1]. Balance 1 means every
// synopsis holds a single image; balance near 0 means few answers share
// many images. Returns 0 when there are no images.
func (s *Set) Balance() float64 {
	if s.HomomorphicSize == 0 {
		return 0
	}
	return float64(len(s.Entries)) / float64(s.HomomorphicSize)
}

// AvgSynopsisSize returns the average number of homomorphic images per
// synopsis (the inverse of Balance; 0 when empty).
func (s *Set) AvgSynopsisSize() float64 {
	if len(s.Entries) == 0 {
		return 0
	}
	return float64(s.HomomorphicSize) / float64(len(s.Entries))
}

// ImageFacts returns the distinct database facts appearing in any
// homomorphic image of any entry — the set H of the noise generator's
// Step 1 — in sorted order.
func (s *Set) ImageFacts() []relation.FactRef {
	var all []relation.FactRef
	for i := range s.Entries {
		all = append(all, s.Entries[i].Facts...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
	out := all[:0]
	for i, f := range all {
		if i == 0 || f != all[i-1] {
			out = append(out, f)
		}
	}
	return out
}

// Build computes syn_{Σ,Q}(D): it enumerates every homomorphism h from Q
// to D, keeps those whose image is consistent w.r.t. the primary keys
// (h(Q) |= Σ), groups them by answer tuple h(x̄), and encodes each group
// as an admissible pair. This is the Go analogue of evaluating the SQL
// rewriting Q^rew and decoding its (rid, bid, tid, kcnt) columns
// (Appendix C). Entries are in ascending tuple order.
func Build(db *relation.Database, q *cq.Query) (*Set, error) {
	return BuildContext(context.Background(), db, q)
}

// buildCtxStride is how many homomorphisms the grouping pass enumerates
// between cancellation polls: frequent enough that aborting a large
// build is prompt, rare enough to stay off the enumeration hot path.
const buildCtxStride = 1024

// BuildContext is Build with cooperative cancellation: the homomorphism
// enumeration polls ctx every buildCtxStride homomorphisms and aborts
// with an error wrapping cqaerr.ErrCanceled (and the context's own
// sentinel). For a context that is never canceled the result is
// identical to Build.
func BuildContext(ctx context.Context, db *relation.Database, q *cq.Query) (*Set, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	buildStart := time.Now()
	set := &Set{}
	images, err := group(ctx, db, q, func(e Entry) error {
		set.Entries = append(set.Entries, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	set.HomomorphicSize = images
	recordBuildMetrics(set, time.Since(buildStart))
	return set, nil
}

// group is the one preprocessing pass behind Build and Stream. It
// enumerates the homomorphisms from q to db, keeps the key-consistent
// ones, stable-sorts them by answer tuple (the analogue of Q^rew's
// ORDER BY ᾱ, so a group's images stay in enumeration order) and hands
// fn one encoded entry at a time, in ascending tuple order. It polls ctx
// every buildCtxStride homomorphisms, returns fn's first error as is,
// and reports the number of distinct consistent images across all
// groups (Set.HomomorphicSize).
func group(ctx context.Context, db *relation.Database, q *cq.Query, fn func(Entry) error) (int, error) {
	bi := relation.BuildBlocks(db)
	ev := engine.NewEvaluator(db)

	type rec struct {
		tuple relation.Tuple
		image []relation.FactRef
	}
	var recs []rec
	// An image is identified by its set of database facts, which the
	// engine hands over sorted.
	distinct := make(map[string]struct{})
	var homs int
	err := ev.EnumerateHomomorphisms(q, func(h *engine.Homomorphism) error {
		if homs++; homs%buildCtxStride == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("synopsis: build aborted after %d homomorphisms: %w", homs, cqaerr.Canceled(cerr))
			}
		}
		if !bi.SatisfiesKeys(h.Image) {
			return nil // h(Q) violates Σ: not part of the synopsis
		}
		t := make(relation.Tuple, len(q.Out))
		for i, v := range q.Out {
			t[i] = h.Assign[v]
		}
		recs = append(recs, rec{tuple: t, image: append([]relation.FactRef(nil), h.Image...)})
		distinct[relation.FactsKey(h.Image)] = struct{}{}
		return nil
	})
	if err != nil {
		return 0, err
	}

	sort.SliceStable(recs, func(i, j int) bool { return recs[i].tuple.Less(recs[j].tuple) })
	for lo := 0; lo < len(recs); {
		hi := lo + 1
		for hi < len(recs) && recs[hi].tuple.Equal(recs[lo].tuple) {
			hi++
		}
		images := make([][]relation.FactRef, 0, hi-lo)
		for k := lo; k < hi; k++ {
			images = append(images, recs[k].image)
		}
		entry, err := encodeEntry(bi, recs[lo].tuple, images)
		if err != nil {
			return 0, err
		}
		if err := fn(entry); err != nil {
			return 0, err
		}
		lo = hi
	}
	return len(distinct), nil
}

// recordBuildMetrics publishes the preprocessing telemetry: build wall
// time, the admissible-pair count, and per-pair block/image size
// distributions (the paper's dynamic parameters, as histograms).
func recordBuildMetrics(set *Set, elapsed time.Duration) {
	r := obs.Default()
	r.Histogram("synopsis_build_seconds").Observe(elapsed.Seconds())
	r.Counter("synopsis_builds_total").Inc()
	r.Counter("synopsis_pairs_total").Add(int64(len(set.Entries)))
	blocks := r.Histogram("synopsis_pair_blocks")
	images := r.Histogram("synopsis_pair_images")
	for i := range set.Entries {
		p := set.Entries[i].Pair
		blocks.Observe(float64(p.NumBlocks()))
		images.Observe(float64(p.NumImages()))
	}
}

// encodeEntry converts a group of global-fact images into the local
// integer encoding of an admissible pair.
func encodeEntry(bi *relation.BlockIndex, tuple relation.Tuple, images [][]relation.FactRef) (Entry, error) {
	blockLocal := make(map[int]int32) // global block id -> local block
	var blockSizes []int32            // local block -> kcnt
	factLocal := make(map[relation.FactRef]Member)
	nextMember := make(map[int32]int32) // local block -> next member id
	factSet := make(map[relation.FactRef]bool)

	pair := &Admissible{}
	for _, img := range images {
		enc := make(Image, 0, len(img))
		for _, f := range img {
			m, ok := factLocal[f]
			if !ok {
				gb := bi.BlockID(f)
				lb, ok := blockLocal[gb]
				if !ok {
					lb = int32(len(blockSizes))
					blockLocal[gb] = lb
					blockSizes = append(blockSizes, int32(bi.BlockOf(f).Size()))
				}
				m = Member{Block: lb, Fact: nextMember[lb]}
				nextMember[lb]++
				factLocal[f] = m
			}
			enc = append(enc, m)
			factSet[f] = true
		}
		pair.Images = append(pair.Images, enc)
	}
	pair.BlockSizes = blockSizes
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		return Entry{}, err
	}

	facts := make([]relation.FactRef, 0, len(factSet))
	for f := range factSet {
		facts = append(facts, f)
	}
	sort.Slice(facts, func(i, j int) bool { return facts[i].Less(facts[j]) })
	return Entry{Tuple: tuple, Pair: pair, Facts: facts}, nil
}
