package synopsis

import (
	"fmt"
	"sort"

	"cqabench/internal/cq"
	"cqabench/internal/engine"
	"cqabench/internal/relation"
)

// BuildViaRewriting computes syn_{Σ,Q}(D) through the paper's literal
// Appendix C pipeline, as the SQL rewriting Q^rew would:
//
//  1. For every relation R of the query, materialize the view Q_R whose
//     rows extend R's tuples with (rid, bid, tid, kcnt): the relation id,
//     the block id (dense rank over key values), the member id (row
//     number within the block) and the block cardinality.
//  2. Evaluate Q over the views, carrying the four extra columns of every
//     atom into the output (the rewriting's SELECT list).
//  3. Decode: a result row is a homomorphic image {[[rid_i, bid_i,
//     tid_i]]}; it satisfies Σ iff equal (rid, bid) pairs agree on tid;
//     consistent rows are grouped by the answer tuple and their encoded
//     blocks completed to cardinality kcnt.
//
// It produces exactly the same Set as Build (the tests assert it) but
// through an independent code path that exercises the paper's encoding —
// the same cross-validation the authors got from running the rewriting on
// PostgreSQL.
func BuildViaRewriting(db *relation.Database, q *cq.Query) (*Set, error) {
	if err := q.Validate(db.Schema); err != nil {
		return nil, err
	}
	bi := relation.BuildBlocks(db)

	// Step 1: the extended schema and database. Every relation of the
	// query gets arity+4 with trailing (rid, bid, tid, kcnt) columns.
	used := map[string]bool{}
	for _, a := range q.Atoms {
		used[a.Rel] = true
	}
	var extDefs []relation.RelDef
	for _, def := range db.Schema.Rels {
		if !used[def.Name] {
			continue
		}
		attrs := append(append([]string(nil), def.Attrs...), "rid", "bid", "tid", "kcnt")
		extDefs = append(extDefs, relation.RelDef{Name: def.Name, Attrs: attrs, KeyLen: 0})
	}
	extSchema, err := relation.NewSchema(extDefs, nil)
	if err != nil {
		return nil, err
	}
	extDB := relation.NewDatabase(extSchema)
	extDB.Dict = db.Dict
	for ri, tb := range db.Tables {
		name := db.Schema.Rels[ri].Name
		if !used[name] {
			continue
		}
		for row, tuple := range tb.Tuples {
			f := relation.FactRef{Rel: int32(ri), Row: int32(row)}
			block := bi.BlockOf(f)
			ext := make(relation.Tuple, 0, len(tuple)+4)
			ext = append(ext, tuple...)
			ext = append(ext,
				db.Dict.Int(int64(ri)),                // rid
				db.Dict.Int(int64(block.Bid)),         // bid (dense rank)
				db.Dict.Int(int64(bi.MemberIndex(f))), // tid (row number)
				db.Dict.Int(int64(block.Size())),      // kcnt
			)
			if _, err := extDB.InsertTuple(name, ext); err != nil {
				return nil, err
			}
		}
	}

	// Step 2: the rewritten query: each atom gains four fresh variables.
	rew := &cq.Query{NumVars: q.NumVars, Out: append([]int(nil), q.Out...)}
	rew.VarNames = append([]string(nil), q.VarNames...)
	for len(rew.VarNames) < q.NumVars {
		rew.VarNames = append(rew.VarNames, fmt.Sprintf("v%d", len(rew.VarNames)))
	}
	type extCols struct{ rid, bid, tid, kcnt int }
	perAtom := make([]extCols, len(q.Atoms))
	fresh := func(name string) int {
		id := rew.NumVars
		rew.NumVars++
		rew.VarNames = append(rew.VarNames, fmt.Sprintf("%s%d", name, id))
		return id
	}
	for ai, a := range q.Atoms {
		cols := extCols{rid: fresh("rid"), bid: fresh("bid"), tid: fresh("tid"), kcnt: fresh("kcnt")}
		perAtom[ai] = cols
		args := append([]cq.Term(nil), a.Args...)
		args = append(args, cq.V(cols.rid), cq.V(cols.bid), cq.V(cols.tid), cq.V(cols.kcnt))
		rew.Atoms = append(rew.Atoms, cq.Atom{Rel: a.Rel, Args: args})
	}

	// Step 3: evaluate and decode, then group the consistent rows by
	// answer tuple as Q^rew's ORDER BY does.
	type row struct {
		tuple relation.Tuple
		refs  []blockRef
		kcnts map[blockKey]int64
	}
	var rows []row

	ev := engine.NewEvaluator(extDB)
	err = ev.EnumerateHomomorphisms(rew, func(h *engine.Homomorphism) error {
		// Decode this row's per-atom identifiers.
		refs := make([]blockRef, 0, len(q.Atoms))
		kcnts := make(map[blockKey]int64, len(q.Atoms))
		consistent := true
		seen := make(map[blockKey]int64, len(q.Atoms))
		for ai := range q.Atoms {
			cols := perAtom[ai]
			rid := int64(h.Assign[cols.rid])
			bid := int64(h.Assign[cols.bid])
			tid := int64(h.Assign[cols.tid])
			kcnt := int64(h.Assign[cols.kcnt])
			bk := blockKey{rid, bid}
			if prev, ok := seen[bk]; ok {
				if prev != tid {
					consistent = false
					break
				}
			} else {
				seen[bk] = tid
			}
			kcnts[bk] = kcnt
			refs = append(refs, blockRef{rid: rid, bid: bid, tid: tid})
		}
		if !consistent {
			return nil // h(Q) violates Σ
		}
		t := make(relation.Tuple, len(q.Out))
		for i, v := range q.Out {
			t[i] = h.Assign[v]
		}
		rows = append(rows, row{tuple: t, refs: refs, kcnts: kcnts})
		return nil
	})
	if err != nil {
		return nil, err
	}

	sort.SliceStable(rows, func(i, j int) bool { return rows[i].tuple.Less(rows[j].tuple) })
	set := &Set{}
	distinct := map[string]bool{}
	for lo := 0; lo < len(rows); {
		var images [][]blockRef
		kcnt := make(map[blockKey]int64)
		hi := lo
		for ; hi < len(rows) && rows[hi].tuple.Equal(rows[lo].tuple); hi++ {
			images = append(images, rows[hi].refs)
			for bk, k := range rows[hi].kcnts {
				kcnt[bk] = k
			}
			distinct[encodeBlockRefs(rows[hi].refs)] = true
		}
		entry, err := decodeRewGroup(rows[lo].tuple, images, kcnt)
		if err != nil {
			return nil, err
		}
		set.Entries = append(set.Entries, entry)
		lo = hi
	}
	set.HomomorphicSize = len(distinct)
	return set, nil
}

// blockRef is the decoded [[rid, bid, tid]] identifier of one image fact.
type blockRef struct{ rid, bid, tid int64 }

// blockKey identifies a block by its (rid, bid) pair.
type blockKey struct{ rid, bid int64 }

// decodeRewGroup encodes one answer tuple's images into an admissible
// pair, mapping (rid, bid) to local blocks and (rid, bid, tid) to local
// members, with block cardinalities from kcnt. Entry.Facts is left empty:
// the rewriting route works purely on identifiers, exactly like the
// paper's encoded synopsis.
func decodeRewGroup(tuple relation.Tuple, images [][]blockRef, kcnt map[blockKey]int64) (Entry, error) {
	blockLocal := make(map[blockKey]int32)
	var blockSizes []int32
	memberLocal := make(map[blockRef]Member)
	nextMember := make(map[int32]int32)

	pair := &Admissible{}
	for _, img := range images {
		var enc Image
		seen := make(map[blockRef]bool, len(img))
		for _, r := range img {
			if seen[r] {
				continue // the same fact twice in one image
			}
			seen[r] = true
			m, ok := memberLocal[r]
			if !ok {
				bk := blockKey{r.rid, r.bid}
				lb, ok := blockLocal[bk]
				if !ok {
					lb = int32(len(blockSizes))
					blockLocal[bk] = lb
					blockSizes = append(blockSizes, int32(kcnt[bk]))
				}
				m = Member{Block: lb, Fact: nextMember[lb]}
				nextMember[lb]++
				memberLocal[r] = m
			}
			enc = append(enc, m)
		}
		pair.Images = append(pair.Images, enc)
	}
	pair.BlockSizes = blockSizes
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		return Entry{}, err
	}
	return Entry{Tuple: tuple, Pair: pair}, nil
}

func encodeBlockRefs(refs []blockRef) string {
	sorted := append([]blockRef(nil), refs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].rid != sorted[j].rid {
			return sorted[i].rid < sorted[j].rid
		}
		if sorted[i].bid != sorted[j].bid {
			return sorted[i].bid < sorted[j].bid
		}
		return sorted[i].tid < sorted[j].tid
	})
	out := ""
	var last blockRef
	first := true
	for _, r := range sorted {
		if !first && r == last {
			continue // duplicate fact within the image
		}
		first = false
		last = r
		out += fmt.Sprintf("%d:%d:%d;", r.rid, r.bid, r.tid)
	}
	return out
}
