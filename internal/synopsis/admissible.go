// Package synopsis implements the paper's database synopses (Section 4.1)
// and the preprocessing step of Section 5 / Appendix C.
//
// The (Σ,Q)-synopsis of D for a tuple t̄ is the admissible pair (H, B):
// H collects the consistent homomorphic images of Q(t̄) in D, and B the
// blocks of every fact occurring in an image. Approximation schemes only
// ever see the integer-encoded form: blocks are identified by dense local
// ids with a cardinality (the SQL encoding's kcnt), and image facts by
// (block id, member id) pairs — exactly the information the rewriting
// Q^rew of Appendix C produces, and nothing more.
package synopsis

import (
	"fmt"
	"math/big"
	"sort"
)

// Member encodes one fact of a homomorphic image: the local block it
// belongs to and its member index within that block (the paper's
// (bid, tid), 0-based).
type Member struct {
	Block int32
	Fact  int32
}

// Image is one consistent homomorphic image h(Q), encoded as members
// sorted by block; consistency (h(Q) |= Σ) means at most one member per
// block, so the Block fields are strictly increasing.
type Image []Member

// Admissible is an encoded admissible pair (H, B). BlockSizes[b] is the
// cardinality of block b in the underlying database (kcnt); member ids
// 0..k-1 of a block name the facts that occur in some image, while ids
// k..size-1 are the anonymous conflicting facts that occur in none.
type Admissible struct {
	BlockSizes []int32
	Images     []Image
}

// Validate checks the structural invariants of an admissible pair:
// H non-empty, every image non-empty with strictly increasing block ids in
// range, member ids within block sizes, all block sizes >= 1, and every
// block touched by at least one image (B is, by definition, the set of
// blocks of facts occurring in images).
func (a *Admissible) Validate() error {
	if len(a.Images) == 0 {
		return fmt.Errorf("synopsis: H is empty (pair is not admissible)")
	}
	for b, sz := range a.BlockSizes {
		if sz < 1 {
			return fmt.Errorf("synopsis: block %d has size %d", b, sz)
		}
	}
	touched := make([]bool, len(a.BlockSizes))
	for i, img := range a.Images {
		if len(img) == 0 {
			return fmt.Errorf("synopsis: image %d is empty", i)
		}
		prev := int32(-1)
		for _, m := range img {
			if m.Block <= prev {
				return fmt.Errorf("synopsis: image %d block ids not strictly increasing", i)
			}
			prev = m.Block
			if int(m.Block) >= len(a.BlockSizes) {
				return fmt.Errorf("synopsis: image %d references unknown block %d", i, m.Block)
			}
			if m.Fact < 0 || m.Fact >= a.BlockSizes[m.Block] {
				return fmt.Errorf("synopsis: image %d member %d out of range for block %d (size %d)", i, m.Fact, m.Block, a.BlockSizes[m.Block])
			}
			touched[m.Block] = true
		}
	}
	for b, ok := range touched {
		if !ok {
			return fmt.Errorf("synopsis: block %d not touched by any image", b)
		}
	}
	return nil
}

// NumBlocks returns |B|.
func (a *Admissible) NumBlocks() int { return len(a.BlockSizes) }

// NumImages returns |H|.
func (a *Admissible) NumImages() int { return len(a.Images) }

// MaxImageSize returns max_{H∈H} |H| (bounded by |Q| per Lemma 4.1(2)).
func (a *Admissible) MaxImageSize() int {
	m := 0
	for _, img := range a.Images {
		if len(img) > m {
			m = len(img)
		}
	}
	return m
}

// DBSize returns |db(B)| exactly: the product of block sizes.
func (a *Admissible) DBSize() *big.Int {
	n := big.NewInt(1)
	for _, sz := range a.BlockSizes {
		n.Mul(n, big.NewInt(int64(sz)))
	}
	return n
}

// ImageWeight returns |I^i| / |db(B)| = Π_{b ∈ blocks(H_i)} 1/size(b):
// the fraction of db(B) whose databases contain image i. Image sizes are
// bounded by |Q|, so the product never underflows in practice.
func (a *Admissible) ImageWeight(i int) float64 {
	w := 1.0
	for _, m := range a.Images[i] {
		w /= float64(a.BlockSizes[m.Block])
	}
	return w
}

// SymbolicWeight returns |S•| / |db(B)| = Σ_i |I^i| / |db(B)|, the
// conversion factor between the KL(M) samplers' expected value and
// R(H,B) (Lemmas 4.5 and 4.7).
func (a *Admissible) SymbolicWeight() float64 {
	var s float64
	for i := range a.Images {
		s += a.ImageWeight(i)
	}
	return s
}

// Covers reports whether image i is contained in the database of db(B)
// described by chosen, where chosen[b] is the member kept from block b.
func (a *Admissible) Covers(i int, chosen []int32) bool {
	return a.Images[i].Within(chosen)
}

// Within reports whether the image is contained in the database of
// db(B) described by chosen, where chosen[b] is the member kept from
// block b.
func (img Image) Within(chosen []int32) bool {
	for _, m := range img {
		if chosen[m.Block] != m.Fact {
			return false
		}
	}
	return true
}

// CoverCount returns |{j : H_j ⊆ I}| for the database described by chosen.
func (a *Admissible) CoverCount(chosen []int32) int {
	k := 0
	for i := range a.Images {
		if a.Covers(i, chosen) {
			k++
		}
	}
	return k
}

// FirstCover returns the least j with H_j ⊆ I, or -1.
func (a *Admissible) FirstCover(chosen []int32) int {
	for i := range a.Images {
		if a.Covers(i, chosen) {
			return i
		}
	}
	return -1
}

// Canonicalize sorts each image by block id, sorts the image list
// lexicographically, and removes duplicate images (H is a set of
// databases). The builder calls it; external constructors of hand-made
// pairs should too.
func (a *Admissible) Canonicalize() {
	for _, img := range a.Images {
		sort.Slice(img, func(x, y int) bool { return img[x].Block < img[y].Block })
	}
	sort.Slice(a.Images, func(x, y int) bool { return imageLess(a.Images[x], a.Images[y]) })
	out := a.Images[:0]
	for i, img := range a.Images {
		if i == 0 || !imageEqual(img, a.Images[i-1]) {
			out = append(out, img)
		}
	}
	a.Images = out
}

func imageLess(x, y Image) bool {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	for i := 0; i < n; i++ {
		if x[i] != y[i] {
			if x[i].Block != y[i].Block {
				return x[i].Block < y[i].Block
			}
			return x[i].Fact < y[i].Fact
		}
	}
	return len(x) < len(y)
}

func imageEqual(x, y Image) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
