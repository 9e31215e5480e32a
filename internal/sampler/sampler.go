// Package sampler implements the paper's three randomized samplers over an
// admissible pair (H, B) (Section 4.2):
//
//   - Natural (Sampler 1) draws a database I uniformly from the natural
//     sampling space db(B) and reports whether some image covers it;
//     it is 1-good (Lemma 4.3).
//   - KL (Sampler 2) draws (i, I) uniformly from the symbolic space S• and
//     reports whether i is the first image covering I; it is
//     (|db(B)|/|S•|)-good (Lemma 4.5).
//   - KLM (Sampler 3) draws from the same space and reports 1/k where k is
//     the number of images covering I; same goodness, lower variance,
//     higher per-sample cost (Lemma 4.7).
//
// Every sampler compiles its pair once into a plan: a draw plan for the
// per-block choices (mt.Fill) and a coverage test. The plain KL kernel
// also marks the images whose draws are 0 whatever the blocks draw, and
// answers those draws without drawing the database. Every sampler exists
// in two kernels with identical distribution and identical MT19937-64
// stream consumption: the plain one (this file), which tests coverage on
// a bit-sliced index of the images (sliced.go), and a first-member
// index-accelerated variant (indexed.go). SelectKernel picks
// between them from synopsis shape. All kernels implement batched drawing
// (SampleBatch) with tight, allocation-free inner loops; a batch of n
// draws is byte-identical to n one-at-a-time Sample calls on the same
// stream.
//
// A sampler reuses internal scratch buffers: one instance serves one
// estimation loop at a time. Fork returns another sampler sharing the
// compiled plan, for another goroutine.
package sampler

import (
	"math/bits"

	"cqabench/internal/mt"
	"cqabench/internal/synopsis"
)

// Sampler is what every kernel implements: the estimators' Sampler and
// BatchSampler, plus Fork.
type Sampler interface {
	Sample(src *mt.Source) float64
	SampleBatch(src *mt.Source, dst []float64)
	// Fork returns a sampler that draws identically and shares this
	// one's compiled plan but owns its scratch, so it may run
	// concurrently with this one.
	Fork() Sampler
}

// plan is a pair compiled for one kernel. It is built once per pair and
// shared, read-only, by the kernel and its forks.
type plan struct {
	blocks int
	fill   mt.Fill          // one uniform fact per block
	images []synopsis.Image // the pair's images, shared with it
	// one is a one-image pair's image as its fact for each block (an
	// admissible pair's only image touches every block), else nil.
	one []int32
	// The coverage test: sliced for the plain kernels of a pair with
	// more than one image, ix for the indexed kernels. A one-image
	// pair's plain kernels and Cover use neither.
	sliced *sliced
	ix     *firstIndex
	// The symbolic space S•, for KL, KLM and Cover: the alias table
	// drawing image i with probability |I^i|/|S•|, and |S•|/|db(B)|.
	alias  *mt.Alias
	weight float64
	// dominated marks, for the plain KL kernel of a pair with more than
	// one image, each image i with an earlier image j < i whose every
	// member lies in H_i or in a block of size 1: every database of I^i
	// contains H_j, so a draw of i is 0 before any block is drawn.
	dominated []bool
}

// newPlan compiles the draw plan shared by every kernel. Plain kernels
// add the sliced index where it applies, indexed ones the first-member
// index, and symbolic-space samplers the alias table.
func newPlan(pair *synopsis.Admissible) *plan {
	p := &plan{blocks: pair.NumBlocks(), fill: mt.NewFill(pair.BlockSizes), images: pair.Images}
	if len(p.images) == 1 {
		p.one = p.scratch()
		for _, m := range p.images[0] {
			p.one[m.Block] = m.Fact
		}
	}
	return p
}

// withSliced adds the bit-sliced index for a plain kernel of a pair
// with more than one image.
func (p *plan) withSliced(pair *synopsis.Admissible) *plan {
	if p.one == nil {
		p.sliced = newSliced(pair)
	}
	return p
}

// withDominated marks the dominated images of a plain KL kernel's
// pair. Image i is dominated when some j < i is contained in db, the
// database that holds H_i's facts, 0 (the one fact) in each size-1
// block and -1 in every other block. A column of the sliced index
// reads -1 as a fact it does not list, whatever its least fact, so
// only the images whose members in blocks larger than 1 all lie in H_i
// survive. (math.MinInt32 would not do: less a least fact near 2³¹, it
// wraps into a listed fact's slot.) Only undominated images are tried
// as j: if k dominates j and j dominates i, k's members in blocks
// larger than 1 lie in H_j, so in H_i, and k dominates i. Images in a
// row often share a dominator, so the last one found is tried first.
func (p *plan) withDominated(pair *synopsis.Admissible) *plan {
	s := p.sliced
	if s == nil {
		return p
	}
	p.dominated = make([]bool, len(p.images))
	kept := make([]uint64, len(s.words)-1) // the undominated images so far
	db := p.scratch()
	for b, sz := range pair.BlockSizes {
		if sz > 1 {
			db[b] = -1
		}
	}
	var last synopsis.Image // the last dominator found
	for i, img := range p.images {
		for _, m := range img {
			db[m.Block] = m.Fact
		}
		if last == nil || !last.Within(db) {
			last = nil
			for w := 0; w <= i>>6 && last == nil; w++ {
				if kept[w] == 0 {
					continue
				}
				if acc := s.contained(w, kept[w], db); acc != 0 {
					last = p.images[w<<6|bits.TrailingZeros64(acc)]
				}
			}
		}
		if p.dominated[i] = last != nil; !p.dominated[i] {
			kept[i>>6] |= 1 << (i & 63)
		}
		for _, m := range img {
			if pair.BlockSizes[m.Block] > 1 {
				db[m.Block] = -1
			}
		}
	}
	return p
}

// withSymbolic adds the symbolic space.
func (p *plan) withSymbolic(pair *synopsis.Admissible) *plan {
	weights := make([]float64, pair.NumImages())
	for i := range weights {
		weights[i] = pair.ImageWeight(i)
	}
	p.alias = mt.NewAlias(weights)
	p.weight = pair.SymbolicWeight()
	return p
}

// scratch returns a fresh database buffer for the plan. It starts at
// all zeros, which is all a size-1 block's entry ever holds.
func (p *plan) scratch() []int32 { return make([]int32, p.blocks) }

// Natural is Sampler 1: SampleNatural.
type Natural struct {
	*plan
	chosen []int32
}

// NewNatural returns a natural-space sampler for the pair, which must be
// admissible (Validate'd by the caller; the synopsis builder guarantees it).
func NewNatural(pair *synopsis.Admissible) *Natural {
	p := newPlan(pair).withSliced(pair)
	return &Natural{plan: p, chosen: p.scratch()}
}

// Fork returns a Natural sampler sharing n's plan.
func (n *Natural) Fork() Sampler { return &Natural{plan: n.plan, chosen: n.scratch()} }

// Sample draws I ∈ db(B) uniformly and returns 1 if some H ∈ H satisfies
// H ⊆ I, else 0. Its expected value is exactly R(H,B).
func (n *Natural) Sample(src *mt.Source) float64 { return n.sample(src) }

// sample is the concrete (devirtualized) draw shared by Sample and
// SampleBatch.
func (n *Natural) sample(src *mt.Source) float64 {
	if n.one != nil {
		var v [1]float64
		src.Match(&n.fill, n.one, v[:])
		return v[0]
	}
	src.Fill(&n.fill, n.chosen)
	if n.sliced.any(n.chosen) {
		return 1
	}
	return 0
}

// SampleBatch fills dst with len(dst) consecutive draws.
func (n *Natural) SampleBatch(src *mt.Source, dst []float64) {
	if n.one != nil {
		src.Match(&n.fill, n.one, dst)
		return
	}
	for i := range dst {
		dst[i] = n.sample(src)
	}
}

// Symbolic holds the shared machinery for sampling (i, I) uniformly from
// the symbolic space S• = {(i, I) : I ∈ I^i}: image i is drawn with
// probability |I^i|/|S•| via a Walker alias table, then I uniformly from
// I^i by fixing H_i's members and choosing the remaining blocks uniformly.
type Symbolic struct {
	*plan
	chosen []int32
}

// NewSymbolic prepares the symbolic sampling space for the pair. It
// builds no coverage index: Cover, its one direct user, tests single
// images through InSet.
func NewSymbolic(pair *synopsis.Admissible) *Symbolic {
	return newSymbolic(newPlan(pair).withSymbolic(pair))
}

func newSymbolic(p *plan) *Symbolic {
	s := &Symbolic{plan: p, chosen: p.scratch()}
	copy(s.chosen, p.one) // what every draw of a one-image pair leaves
	return s
}

// fork returns a Symbolic sharing s's plan.
func (s *Symbolic) fork() *Symbolic { return newSymbolic(s.plan) }

// Draw samples (i, I) uniformly from S•, leaving the drawn pair as the
// sampler's current state, and returns i. Every block's choice is drawn,
// H_i's included, before H_i's members are fixed: a one-image pair's
// image fixes every block, so its draws only advance the stream.
func (s *Symbolic) Draw(src *mt.Source) int {
	if s.one != nil {
		src.Advance(&s.fill, oneAlias, 1)
		return 0
	}
	i := s.alias.Draw(src)
	s.drawIn(src, i)
	return i
}

// drawIn draws I uniformly from I^i into the current state.
func (s *Symbolic) drawIn(src *mt.Source, i int) {
	src.Fill(&s.fill, s.chosen)
	for _, m := range s.images[i] {
		s.chosen[m.Block] = m.Fact
	}
}

// oneAlias is the number of words a one-entry alias table reads: its
// Intn(1), and a Float64 that is below prob[0] = 1, so it draws image 0.
const oneAlias = 2

// WalkOne consumes src as n steps of the coverage walk over a one-image
// pair: each step's Intn(1) word, which picks image 0, then the Draw
// that follows it, as InSet(0) always holds.
func (s *Symbolic) WalkOne(src *mt.Source, n int) {
	src.Advance(&s.fill, 1+oneAlias, n)
}

// drawOne fills dst with KL or KLM draws of a one-image pair, which are
// all 1: image 0 is drawn, and it alone covers.
func (s *Symbolic) drawOne(src *mt.Source, dst []float64) {
	src.Advance(&s.fill, oneAlias, len(dst))
	for i := range dst {
		dst[i] = 1
	}
}

// InSet reports whether the current I lies in I^j (i.e. H_j ⊆ I).
func (s *Symbolic) InSet(j int) bool {
	return s.images[j].Within(s.chosen)
}

// NumImages returns |H|.
func (s *Symbolic) NumImages() int { return len(s.images) }

// Weight returns |S•| / |db(B)|: the factor converting estimates over the
// symbolic space into R(H,B) (Algorithms 4 and 5 use its reciprocal and
// itself respectively; we keep everything as ratios of |db(B)| so nothing
// overflows).
func (s *Symbolic) Weight() float64 { return s.weight }

// KL is Sampler 2: SampleKL.
type KL struct {
	*Symbolic
}

// NewKL returns the Karp–Luby sampler for the pair.
func NewKL(pair *synopsis.Admissible) *KL {
	return &KL{newSymbolic(newPlan(pair).withSymbolic(pair).withSliced(pair).withDominated(pair))}
}

// Fork returns a KL sampler sharing k's plan.
func (k *KL) Fork() Sampler { return &KL{k.fork()} }

// Sample draws (i, I) from S• and returns 1 iff no j < i has H_j ⊆ I.
// Its expected value is Num/|S•| = R(H,B) · |db(B)|/|S•|.
func (k *KL) Sample(src *mt.Source) float64 { return k.sample(src) }

func (k *KL) sample(src *mt.Source) float64 {
	// A one-image pair has no j < i = 0.
	if k.one != nil {
		k.Draw(src)
		return 1
	}
	i := k.alias.Draw(src)
	if k.dominated[i] {
		// The run's words are read, rejections included, but no block's
		// value is needed: an earlier image is in every database of I^i.
		src.Advance(&k.fill, 0, 1)
		return 0
	}
	k.drawIn(src, i)
	if k.sliced.anyBelow(i, k.chosen) {
		return 0
	}
	return 1
}

// SampleBatch fills dst with len(dst) consecutive draws.
func (k *KL) SampleBatch(src *mt.Source, dst []float64) {
	if k.one != nil {
		k.drawOne(src, dst)
		return
	}
	for i := range dst {
		dst[i] = k.sample(src)
	}
}

// KLM is Sampler 3: SampleKLM.
type KLM struct {
	*Symbolic
}

// NewKLM returns the Karp–Luby–Madras sampler for the pair.
func NewKLM(pair *synopsis.Admissible) *KLM {
	return &KLM{newSymbolic(newPlan(pair).withSymbolic(pair).withSliced(pair))}
}

// Fork returns a KLM sampler sharing k's plan.
func (k *KLM) Fork() Sampler { return &KLM{k.fork()} }

// Sample draws (i, I) from S• and returns 1/k with k = |{j : H_j ⊆ I}|
// (k ≥ 1 since H_i ⊆ I by construction). Its expected value equals KL's.
func (k *KLM) Sample(src *mt.Source) float64 { return k.sample(src) }

func (k *KLM) sample(src *mt.Source) float64 {
	k.Draw(src)
	// A one-image pair has no sliced index: its image covers, alone.
	if k.sliced == nil {
		return 1
	}
	return 1 / float64(k.sliced.count(k.chosen))
}

// SampleBatch fills dst with len(dst) consecutive draws.
func (k *KLM) SampleBatch(src *mt.Source, dst []float64) {
	if k.one != nil {
		k.drawOne(src, dst)
		return
	}
	for i := range dst {
		dst[i] = k.sample(src)
	}
}
