package sampler

import (
	"cqabench/internal/mt"
	"cqabench/internal/synopsis"
)

// firstIndex is an inverted index on each image's first member: an image
// H can cover a database I only if I keeps H's first (block, member)
// choice (images are canonically sorted, so "first" is well defined).
// Instead of scanning every image per draw, an indexed kernel looks up
// the candidate images of each chosen member and verifies only those.
//
// The index is stored as dense slices, not maps, so a lookup in the hot
// loop is two array indexings: blocks lists the distinct first blocks,
// and lists[k][fact] the (ascending) images whose first member is
// (blocks[k], fact). Facts ≥ len(lists[k]) start no image — the builder
// assigns low member ids to facts occurring in images, so these arrays
// stay small even when blocks are huge.
type firstIndex struct {
	blocks []int32
	lists  [][][]int32
}

func newFirstIndex(images []synopsis.Image, blocks int) *firstIndex {
	ix := &firstIndex{}
	// slot[b] is 1 + the position of block b in ix.blocks, 0 while b
	// starts no image.
	slot := make([]int32, blocks)
	for i, img := range images {
		first := img[0]
		k := slot[first.Block] - 1
		if k < 0 {
			k = int32(len(ix.blocks))
			slot[first.Block] = k + 1
			ix.blocks = append(ix.blocks, first.Block)
			ix.lists = append(ix.lists, nil)
		}
		for int(first.Fact) >= len(ix.lists[k]) {
			ix.lists[k] = append(ix.lists[k], nil)
		}
		ix.lists[k][first.Fact] = append(ix.lists[k][first.Fact], int32(i))
	}
	return ix
}

// NaturalIndexed is SampleNatural accelerated by the first-member index:
// same distribution, expected value, and PRNG stream consumption as
// Natural. The win appears on low-coverage synopses with many images
// over large blocks, where the plain kernel must reject every image
// per draw while the index visits Σ_b |H_b|/size(b) candidates in
// expectation; the plain kernel stays faster on small synopses and
// where many images share their first member (SelectKernel encodes
// the crossover).
type NaturalIndexed struct {
	*plan
	chosen []int32
}

// NewNaturalIndexed builds the indexed sampler. It is a drop-in
// replacement for NewNatural.
func NewNaturalIndexed(pair *synopsis.Admissible) *NaturalIndexed {
	p := newPlan(pair).withIndex()
	return &NaturalIndexed{plan: p, chosen: p.scratch()}
}

// withIndex adds the first-member index for an indexed kernel.
func (p *plan) withIndex() *plan {
	p.ix = newFirstIndex(p.images, p.blocks)
	return p
}

// Fork returns a NaturalIndexed sampler sharing n's plan.
func (n *NaturalIndexed) Fork() Sampler {
	return &NaturalIndexed{plan: n.plan, chosen: n.scratch()}
}

// Sample draws I ∈ db(B) uniformly and returns 1 if some image covers it.
func (n *NaturalIndexed) Sample(src *mt.Source) float64 { return n.sample(src) }

func (n *NaturalIndexed) sample(src *mt.Source) float64 {
	src.Fill(&n.fill, n.chosen)
	for k, b := range n.ix.blocks {
		lists := n.ix.lists[k]
		f := n.chosen[b]
		if int(f) >= len(lists) {
			continue
		}
		for _, i := range lists[f] {
			if n.images[i].Within(n.chosen) {
				return 1
			}
		}
	}
	return 0
}

// SampleBatch fills dst with len(dst) consecutive draws.
func (n *NaturalIndexed) SampleBatch(src *mt.Source, dst []float64) {
	for i := range dst {
		dst[i] = n.sample(src)
	}
}

// KLIndexed is the KL sampler accelerated by the first-member index: any
// j < i with H_j ⊆ I must have its first member kept in I, so only the
// candidate images of the chosen members are verified instead of
// scanning every j < i. Identical distribution, values, and PRNG stream
// consumption as KL.
type KLIndexed struct {
	*Symbolic
}

// NewKLIndexed builds the indexed Karp–Luby sampler. It is a drop-in
// replacement for NewKL.
func NewKLIndexed(pair *synopsis.Admissible) *KLIndexed {
	return &KLIndexed{newSymbolic(newPlan(pair).withSymbolic(pair).withIndex())}
}

// Fork returns a KLIndexed sampler sharing k's plan.
func (k *KLIndexed) Fork() Sampler { return &KLIndexed{k.fork()} }

// Sample draws (i, I) from S• and returns 1 iff no j < i has H_j ⊆ I.
func (k *KLIndexed) Sample(src *mt.Source) float64 { return k.sample(src) }

func (k *KLIndexed) sample(src *mt.Source) float64 {
	i := int32(k.Draw(src))
	for kk, b := range k.ix.blocks {
		lists := k.ix.lists[kk]
		f := k.chosen[b]
		if int(f) >= len(lists) {
			continue
		}
		// Candidate lists are ascending: stop at the first j ≥ i.
		for _, j := range lists[f] {
			if j >= i {
				break
			}
			if k.images[j].Within(k.chosen) {
				return 0
			}
		}
	}
	return 1
}

// SampleBatch fills dst with len(dst) consecutive draws.
func (k *KLIndexed) SampleBatch(src *mt.Source, dst []float64) {
	if k.one != nil {
		k.drawOne(src, dst)
		return
	}
	for i := range dst {
		dst[i] = k.sample(src)
	}
}

// KLMIndexed is the KLM sampler accelerated by the first-member index:
// the covering count k = |{j : H_j ⊆ I}| is taken over the candidate
// images of the chosen members — every covering image's first member is
// kept in I, and each image is keyed by exactly one first member, so the
// candidate walk counts each covering image exactly once instead of
// scanning all |H|. Identical distribution, values, and PRNG stream
// consumption as KLM.
type KLMIndexed struct {
	*Symbolic
}

// NewKLMIndexed builds the indexed Karp–Luby–Madras sampler. It is a
// drop-in replacement for NewKLM.
func NewKLMIndexed(pair *synopsis.Admissible) *KLMIndexed {
	return &KLMIndexed{newSymbolic(newPlan(pair).withSymbolic(pair).withIndex())}
}

// Fork returns a KLMIndexed sampler sharing k's plan.
func (k *KLMIndexed) Fork() Sampler { return &KLMIndexed{k.fork()} }

// Sample draws (i, I) from S• and returns 1/k with k = |{j : H_j ⊆ I}|
// (k ≥ 1: the drawn image's own first member is kept by construction).
func (k *KLMIndexed) Sample(src *mt.Source) float64 { return k.sample(src) }

func (k *KLMIndexed) sample(src *mt.Source) float64 {
	k.Draw(src)
	cnt := 0
	for kk, b := range k.ix.blocks {
		lists := k.ix.lists[kk]
		f := k.chosen[b]
		if int(f) >= len(lists) {
			continue
		}
		for _, j := range lists[f] {
			if k.images[j].Within(k.chosen) {
				cnt++
			}
		}
	}
	return 1 / float64(cnt)
}

// SampleBatch fills dst with len(dst) consecutive draws.
func (k *KLMIndexed) SampleBatch(src *mt.Source, dst []float64) {
	if k.one != nil {
		k.drawOne(src, dst)
		return
	}
	for i := range dst {
		dst[i] = k.sample(src)
	}
}
