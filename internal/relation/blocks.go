package relation

import "math/big"

// Block is a maximal set of facts sharing a key value: the paper's
// block_Σ(α, D). Facts are listed in row order; Bid and the member order
// correspond to the dense_rank / row_number ids of the paper's SQL
// encoding (Appendix C).
type Block struct {
	Rel   int32
	Bid   int32
	Facts []FactRef
}

// Size returns the block cardinality (the paper's kcnt).
func (b *Block) Size() int { return len(b.Facts) }

// BlockIndex is the block decomposition block_Σ(D) of a database: every
// fact belongs to exactly one block.
type BlockIndex struct {
	Blocks []Block
	// ofFact maps (rel,row) to (block index in Blocks, member index in
	// block). Parallel slices per relation.
	blockOf  [][]int32
	memberOf [][]int32
}

// BuildBlocks computes the block decomposition of db, grouping facts by
// key_Σ(α). Within a relation, blocks are numbered by first occurrence
// (deterministic given insertion order), and members keep row order.
func BuildBlocks(db *Database) *BlockIndex {
	bi := &BlockIndex{
		blockOf:  make([][]int32, len(db.Tables)),
		memberOf: make([][]int32, len(db.Tables)),
	}
	for ri, tb := range db.Tables {
		n := len(tb.Tuples)
		bi.blockOf[ri] = make([]int32, n)
		bi.memberOf[ri] = make([]int32, n)
		keyToBlock := make(map[string]int, n)
		relBid := int32(0)
		for row := 0; row < n; row++ {
			f := FactRef{int32(ri), int32(row)}
			kv := db.KeyValue(f)
			idx, ok := keyToBlock[kv]
			if !ok {
				idx = len(bi.Blocks)
				keyToBlock[kv] = idx
				bi.Blocks = append(bi.Blocks, Block{Rel: int32(ri), Bid: relBid})
				relBid++
			}
			b := &bi.Blocks[idx]
			bi.blockOf[ri][row] = int32(idx)
			bi.memberOf[ri][row] = int32(len(b.Facts))
			b.Facts = append(b.Facts, f)
		}
	}
	return bi
}

// BlockOf returns the block containing fact f.
func (bi *BlockIndex) BlockOf(f FactRef) *Block {
	return &bi.Blocks[bi.blockOf[f.Rel][f.Row]]
}

// BlockID returns the global index (into Blocks) of the block containing f.
func (bi *BlockIndex) BlockID(f FactRef) int {
	return int(bi.blockOf[f.Rel][f.Row])
}

// MemberIndex returns the position of f within its block (the paper's tid,
// 0-based).
func (bi *BlockIndex) MemberIndex(f FactRef) int {
	return int(bi.memberOf[f.Rel][f.Row])
}

// IsConsistent reports D |= Σ: every block is a singleton.
func (bi *BlockIndex) IsConsistent() bool {
	for i := range bi.Blocks {
		if len(bi.Blocks[i].Facts) > 1 {
			return false
		}
	}
	return true
}

// NonSingletonBlocks returns the blocks witnessing inconsistency.
func (bi *BlockIndex) NonSingletonBlocks() []*Block {
	var out []*Block
	for i := range bi.Blocks {
		if len(bi.Blocks[i].Facts) > 1 {
			out = append(out, &bi.Blocks[i])
		}
	}
	return out
}

// NumRepairs returns |rep(D, Σ)| exactly: the product of block sizes.
func (bi *BlockIndex) NumRepairs() *big.Int {
	n := big.NewInt(1)
	for i := range bi.Blocks {
		n.Mul(n, big.NewInt(int64(len(bi.Blocks[i].Facts))))
	}
	return n
}

// IsConsistentDB is a convenience wrapper: does db satisfy its schema's
// primary keys?
func IsConsistentDB(db *Database) bool {
	return BuildBlocks(db).IsConsistent()
}

// SatisfiesKeys reports whether the given set of facts (as a sub-database
// of db) is consistent, i.e. no two facts in the set fall in the same
// block. The synopsis builder uses it to test h(Q) |= Σ.
func (bi *BlockIndex) SatisfiesKeys(facts []FactRef) bool {
	if len(facts) <= 1 {
		return true
	}
	seen := make(map[int32]FactRef, len(facts))
	for _, f := range facts {
		b := bi.blockOf[f.Rel][f.Row]
		if prev, ok := seen[b]; ok {
			if prev != f {
				return false
			}
			continue
		}
		seen[b] = f
	}
	return true
}
