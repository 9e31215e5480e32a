package sampler

import (
	"cmp"
	"math/bits"
	"slices"

	"cqabench/internal/synopsis"
)

// sliced is the bit-sliced coverage index the plain kernels test a drawn
// database I with. Images are grouped 64 to a machine word, image i
// being bit i%64 of word i/64. For each block that some image of a word
// touches, a column of the word maps each fact of the block to the mask
// of the word's images compatible with it: those that keep the fact, and
// those that do not touch the block. The images of a word that I
// contains are the AND, over the word's columns, of the mask for I's
// fact in the column's block. A coverage test so costs one table lookup
// per column instead of one member walk per image, and it stops as soon
// as the AND is zero. Columns go in the order that empties the AND
// soonest on a uniform draw. Blocks of size 1 get no column: their one
// fact is kept in every database.
//
// A column's table covers the facts from its least to its greatest,
// plus one slot for all other facts. Where two facts of a column lie
// more than maxFactGap apart, the column is split in two, each
// constraining only the images of its own facts, so the tables hold at
// most maxFactGap+1 slots per member and the index stays linear in the
// pair's members whatever the block sizes. The index is immutable once
// built.
type sliced struct {
	// words has one entry per word, then a sentinel: word w's columns
	// are cols[words[w].col:words[w+1].col].
	words []sliceWord
	cols  []sliceCol
	masks []uint64 // the columns' tables
}

// maxFactGap bounds the distance between consecutive facts of a column.
const maxFactGap = 8

type sliceWord struct {
	all uint64 // the word's images
	col int32
}

// sliceCol is one column: for fact f of the block, the mask is
// masks[off+min(f-lo, n)], masks[off+n] being the images not touching
// the block through this column's facts.
type sliceCol struct {
	touch uint64 // the images the column constrains
	block int32
	lo    int32
	n     uint32
	off   int32
}

// colBuild is a column being built from keys, its members as fact<<6 |
// image bit, ascending, with the expected share of the word's images it
// keeps on a uniform draw.
type colBuild struct {
	sliceCol
	keys []uint64
	keep float64
}

func newSliced(pair *synopsis.Admissible) *sliced {
	n := len(pair.Images)
	s := &sliced{words: make([]sliceWord, 0, (n+63)/64+1)}
	// While a word is built, head[b] starts the list, through next, of
	// the word's members in block b, as keys; blocks lists the blocks
	// that have one.
	head := make([]int32, pair.NumBlocks())
	for b := range head {
		head[b] = -1
	}
	most := 64 * pair.MaxImageSize() // members in one word
	next, blocks := make([]int32, 0, most), make([]int32, 0, most)
	keys, sorted := make([]uint64, 0, most), make([]uint64, 0, most)
	var cols []colBuild
	for lo := 0; lo < n; lo += 64 {
		hi := min(lo+64, n)
		next, blocks, keys = next[:0], blocks[:0], keys[:0]
		for i := lo; i < hi; i++ {
			for _, m := range pair.Images[i] {
				if pair.BlockSizes[m.Block] == 1 {
					continue
				}
				if head[m.Block] < 0 {
					blocks = append(blocks, m.Block)
				}
				next = append(next, head[m.Block])
				head[m.Block] = int32(len(keys))
				keys = append(keys, uint64(m.Fact)<<6|uint64(i-lo))
			}
		}
		slices.Sort(blocks)
		// Cut each block's members into columns, split where facts lie
		// more than maxFactGap apart.
		all := ^uint64(0) >> (64 - (hi - lo))
		sorted, cols = sorted[:0], cols[:0]
		for _, b := range blocks {
			first := len(sorted)
			for k := head[b]; k >= 0; k = next[k] {
				sorted = append(sorted, keys[k])
			}
			head[b] = -1
			ms := sorted[first:]
			slices.Sort(ms)
			for k := 0; k < len(ms); {
				end := k + 1
				for end < len(ms) && ms[end]>>6-ms[end-1]>>6 <= maxFactGap {
					end++
				}
				c := colBuild{keys: ms[k:end]}
				c.block, c.lo, c.n = b, int32(ms[k]>>6), uint32(ms[end-1]>>6-ms[k]>>6)+1
				for _, key := range c.keys {
					c.touch |= 1 << (key & 63)
				}
				c.keep = float64(bits.OnesCount64(all&^c.touch)) + float64(bits.OnesCount64(c.touch))/float64(pair.BlockSizes[b])
				cols = append(cols, c)
				k = end
			}
		}
		// The columns that empty the AND soonest go first.
		slices.SortStableFunc(cols, func(x, y colBuild) int { return cmp.Compare(x.keep, y.keep) })
		s.words = append(s.words, sliceWord{all: all, col: int32(len(s.cols))})
		for _, c := range cols {
			c.off = int32(len(s.masks))
			def := all &^ c.touch
			for j := uint32(0); j <= c.n; j++ {
				s.masks = append(s.masks, def)
			}
			for _, key := range c.keys {
				s.masks[c.off+int32(key>>6)-c.lo] |= 1 << (key & 63)
			}
			s.cols = append(s.cols, c.sliceCol)
		}
	}
	s.words = append(s.words, sliceWord{col: int32(len(s.cols))})
	return s
}

// contained returns the images of word w, among those in acc, that
// the database chosen contains.
func (s *sliced) contained(w int, acc uint64, chosen []int32) uint64 {
	cols := s.cols[s.words[w].col:s.words[w+1].col]
	for k := range cols {
		c := &cols[k]
		if acc&c.touch == 0 {
			continue // no image left in acc is constrained by the column
		}
		i := uint32(chosen[c.block] - c.lo)
		if i > c.n {
			i = c.n
		}
		if acc &= s.masks[c.off+int32(i)]; acc == 0 {
			return 0
		}
	}
	return acc
}

// any reports whether some image is contained in chosen.
func (s *sliced) any(chosen []int32) bool {
	for w := 0; w < len(s.words)-1; w++ {
		if s.contained(w, s.words[w].all, chosen) != 0 {
			return true
		}
	}
	return false
}

// anyBelow reports whether some image j < i is contained in chosen.
func (s *sliced) anyBelow(i int, chosen []int32) bool {
	last := i >> 6
	for w := 0; w < last; w++ {
		if s.contained(w, s.words[w].all, chosen) != 0 {
			return true
		}
	}
	below := uint64(1)<<(i&63) - 1
	return below != 0 && s.contained(last, below, chosen) != 0
}

// count returns the number of images contained in chosen.
func (s *sliced) count(chosen []int32) int {
	k := 0
	for w := 0; w < len(s.words)-1; w++ {
		k += bits.OnesCount64(s.contained(w, s.words[w].all, chosen))
	}
	return k
}
