package synopsis

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"

	"cqabench/internal/cqaerr"
)

// ErrTooLarge is returned by the exact computations when an instance
// exceeds their bound: ExactRatio's image limit, BruteForceRatio's
// |db(B)| limit, or the compilation-node bound of Exact.
var ErrTooLarge = errors.New("synopsis: instance too large for exact computation")

// ExactRatio computes R(H, B) exactly by inclusion–exclusion over the
// sets I^1, ..., I^n (Lemma 4.1(3) gives R_{D,Σ,Q}(t̄) = R(H,B)):
//
//	Num/|db(B)| = Σ_{∅≠S⊆[n]} (−1)^{|S|+1} · [∪_{i∈S} H_i consistent] · Π_{b∈blocks(∪S)} 1/size(b)
//
// A subset S contributes iff the union of its images keeps at most one
// member per block. The runtime is O(2^n · n · |Q|); it refuses instances
// with n > maxImages (use Exact beyond that). It is the reference oracle
// the tests check Exact against.
func (a *Admissible) ExactRatio(maxImages int) (float64, error) {
	if maxImages <= 0 {
		maxImages = 22
	}
	n := len(a.Images)
	if n == 0 {
		return 0, nil
	}
	if n > maxImages {
		return 0, fmt.Errorf("%w: |H| = %d > %d", ErrTooLarge, n, maxImages)
	}
	return unionRatio(a.Images, a.BlockSizes, make([]int32, len(a.BlockSizes))), nil
}

// unionRatio is the inclusion–exclusion loop of ExactRatio and of
// Exact's small components: the fraction of the databases that contain
// at least one of images, where block b has sizes[b] members. chosen[b]
// holds 1 + the member that the current subset fixes in block b; it must
// be zero on entry and is again on return. The sum is clamped to [0, 1],
// which floating-point cancellation can leave by an epsilon.
func unionRatio(images []Image, sizes, chosen []int32) float64 {
	fixed := make([]int32, 0, 64) // the blocks the subset fixes
	total := 0.0
	for subset := uint64(1); subset < uint64(1)<<len(images); subset++ {
		consistent, weight, bits := true, 1.0, 0
		for i := 0; i < len(images) && consistent; i++ {
			if subset&(1<<uint(i)) == 0 {
				continue
			}
			bits++
			for _, m := range images[i] {
				if c := chosen[m.Block]; c == 0 {
					chosen[m.Block] = m.Fact + 1
					fixed = append(fixed, m.Block)
					weight /= float64(sizes[m.Block])
				} else if c != m.Fact+1 {
					consistent = false
					break
				}
			}
		}
		for _, b := range fixed {
			chosen[b] = 0
		}
		fixed = fixed[:0]
		if consistent && bits%2 == 1 {
			total += weight
		} else if consistent {
			total -= weight
		}
	}
	return min(max(total, 0), 1)
}

// BruteForceRatio computes R(H, B) by enumerating db(B) with an odometer
// over block member choices. It refuses instances where |db(B)| exceeds
// limit (default 1<<20). It is the most literal form of the definition and
// serves as the ground-truth oracle for ExactRatio, Exact and the samplers.
func (a *Admissible) BruteForceRatio(limit int64) (float64, error) {
	if limit <= 0 {
		limit = 1 << 20
	}
	dbSize := a.DBSize()
	if dbSize.Cmp(big.NewInt(limit)) > 0 {
		return 0, fmt.Errorf("%w: |db(B)| = %v > %d", ErrTooLarge, dbSize, limit)
	}
	if len(a.Images) == 0 {
		return 0, nil
	}
	nb := len(a.BlockSizes)
	chosen := make([]int32, nb)
	covered, total := 0, 0
	for {
		total++
		if a.FirstCover(chosen) >= 0 {
			covered++
		}
		i := 0
		for ; i < nb; i++ {
			chosen[i]++
			if chosen[i] < a.BlockSizes[i] {
				break
			}
			chosen[i] = 0
		}
		if i == nb {
			break
		}
	}
	return float64(covered) / float64(total), nil
}

const (
	// exactMaxNodes bounds the compilation of Exact: a pair that needs
	// more memoized nodes fails with ErrTooLarge.
	exactMaxNodes = 1 << 20
	// exactCtxStride is how many compilation nodes Exact expands between
	// polls of its context.
	exactCtxStride = 256
	// ieMaxImages is the largest component Exact counts by inclusion–
	// exclusion instead of compiling it. From 5 to 8, the 27 Lab pairs
	// of the exact golden (4.2–4.5 ms in all) and the README query's
	// noise-1.0 tuple 0 (0.41–0.50 s) time alike within run-to-run
	// noise; at 12 the Lab pairs take 4.9–5.6 ms, at 16 10.5–11.3 ms.
	ieMaxImages = 8
)

// Exact computes R(H, B) exactly, for pairs far beyond inclusion–
// exclusion's reach. A one-image pair is answered by its weight, and a
// pair of at most ieMaxImages images by inclusion–exclusion. Otherwise
// the members of size-1 blocks are dropped first: every repair keeps
// them, so an image made only of them makes R = 1. The remaining images
// are compiled by Shannon expansion on blocks. At every node the images
// that contain another are dropped, the rest are split into components
// that share no block (they are covered independently:
// R = 1 − Π_c (1 − R_c)), and each component is counted by inclusion–
// exclusion when it has at most ieMaxImages images, or else by branching
// on the block that the most of its images touch, memoized on the
// component's residual images.
//
// ctx, which must not be nil, is polled on entry and every
// exactCtxStride nodes; a canceled or expired ctx fails with an error
// wrapping cqaerr.ErrCanceled and the context's own sentinel, as
// BuildContext does. A pair that needs more than 2^20 nodes fails with
// ErrTooLarge.
func (a *Admissible) Exact(ctx context.Context) (float64, error) {
	return a.exact(ctx, exactMaxNodes)
}

// exact is Exact under a bound of maxNodes compilation nodes.
func (a *Admissible) exact(ctx context.Context, maxNodes int) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("synopsis: exact: %w", cqaerr.Canceled(err))
	}
	nb := len(a.BlockSizes)
	switch n := len(a.Images); {
	case n == 0:
		return 0, nil
	case n == 1:
		return a.ImageWeight(0), nil
	case n <= ieMaxImages:
		return unionRatio(a.Images, a.BlockSizes, make([]int32, nb)), nil
	}
	e := &exactEngine{ctx: ctx, sizes: a.BlockSizes, maxNodes: maxNodes,
		memo: make(map[string]float64), res: make([]Image, len(a.Images)),
		key:   make([]byte, (len(a.Images)+nb+7)/8),
		touch: make([]int32, nb), chosen: make([]int32, nb), slot: make([]int32, nb+1)}
	ids := make([]int32, len(a.Images))
	for i, img := range a.Images {
		ids[i] = int32(i)
		e.res[i] = img
		if slices.ContainsFunc(img, func(m Member) bool { return a.BlockSizes[m.Block] == 1 }) {
			e.res[i] = slices.DeleteFunc(slices.Clone(img), func(m Member) bool { return a.BlockSizes[m.Block] == 1 })
		}
		if len(e.res[i]) == 0 {
			return 1, nil
		}
		for _, m := range e.res[i] {
			e.slot[m.Block+1] = max(e.slot[m.Block+1], m.Fact+1)
		}
	}
	for b := 0; b < nb; b++ {
		e.slot[b+1] += e.slot[b]
	}
	e.head = make([]int32, e.slot[nb])
	e.freq = make([]int32, e.slot[nb])
	r, err := e.count(ids)
	return min(r, 1), err // rounding can pass 1; nothing makes r negative
}

// exactEngine is the state of one Exact call. res[id] is image id's
// residual: the image without the members of size-1 blocks and of the
// blocks that the compilation nodes above the current one branch on.
type exactEngine struct {
	ctx      context.Context
	sizes    []int32
	res      []Image
	maxNodes int
	nodes    int
	memo     map[string]float64
	key      []byte
	ie       []Image
	// Per block b, touch[b] and chosen[b] are zero between uses. Per
	// member (b, f), at index slot[b] + f, so are head and freq.
	touch, chosen, slot, head, freq []int32
}

// count returns the fraction of db(B) that contains one of the residuals
// of ids; none is empty.
func (e *exactEngine) count(ids []int32) (float64, error) {
	comps := e.components(e.dropSupersets(ids))
	if len(comps) == 1 {
		return e.component(comps[0])
	}
	miss := 1.0
	for _, c := range comps {
		r, err := e.component(c)
		if err != nil {
			return 0, err
		}
		miss *= 1 - r
	}
	return 1 - miss, nil
}

// dropSupersets returns ids without each image whose residual contains
// another's, which covers no database the other does not; of equal
// residuals it keeps one. It visits the images by residual size and
// compares each only with the kept images listed in head under one of
// its members: a kept image is listed under its rarest member, the one
// that the fewest of ids share.
func (e *exactEngine) dropSupersets(ids []int32) []int32 {
	longest := 0
	for _, id := range ids {
		longest = max(longest, len(e.res[id]))
		for _, m := range e.res[id] {
			e.freq[e.slot[m.Block]+m.Fact]++
		}
	}
	rarest := func(img Image) int32 {
		best := e.slot[img[0].Block] + img[0].Fact
		for _, m := range img[1:] {
			if s := e.slot[m.Block] + m.Fact; e.freq[s] < e.freq[best] {
				best = s
			}
		}
		return best
	}
	// head[s] and link[k] hold 1 + a position in kept, 0 ending a list.
	kept := make([]int32, 0, len(ids))
	link := make([]int32, 0, len(ids))
	for size := 1; size <= longest; size++ {
	next:
		for _, id := range ids {
			img := e.res[id]
			if len(img) != size {
				continue
			}
			for _, m := range img {
				for k := e.head[e.slot[m.Block]+m.Fact]; k > 0; k = link[k-1] {
					if subsetOf(e.res[kept[k-1]], img) {
						continue next
					}
				}
			}
			s := rarest(img)
			kept = append(kept, id)
			link = append(link, e.head[s])
			e.head[s] = int32(len(kept))
		}
	}
	for _, id := range kept {
		e.head[rarest(e.res[id])] = 0
	}
	for _, id := range ids {
		for _, m := range e.res[id] {
			e.freq[e.slot[m.Block]+m.Fact] = 0
		}
	}
	return kept
}

// subsetOf reports whether x ⊆ y; both are sorted by block.
func subsetOf(x, y Image) bool {
	j := 0
	for _, m := range x {
		for j < len(y) && y[j].Block < m.Block {
			j++
		}
		if j == len(y) || y[j] != m {
			return false
		}
		j++
	}
	return true
}

// components splits ids into the groups whose residuals share blocks,
// transitively.
func (e *exactEngine) components(ids []int32) [][]int32 {
	parent := make([]int32, len(ids))
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	groups := len(ids)
	for k, id := range ids {
		parent[k] = int32(k)
		for _, m := range e.res[id] {
			// touch[b] is 1 + the first position whose residual has b.
			if o := e.touch[m.Block]; o == 0 {
				e.touch[m.Block] = int32(k) + 1
			} else if x, y := find(int32(k)), find(o-1); x != y {
				parent[x] = y
				groups--
			}
		}
	}
	for _, id := range ids {
		for _, m := range e.res[id] {
			e.touch[m.Block] = 0
		}
	}
	if groups == 1 {
		return [][]int32{ids}
	}
	comps := make([][]int32, 0, groups)
	index := make([]int32, len(ids)) // 1 + the group of a root position
	for k, id := range ids {
		r := find(int32(k))
		if index[r] == 0 {
			comps = append(comps, nil)
			index[r] = int32(len(comps))
		}
		comps[index[r]-1] = append(comps[index[r]-1], id)
	}
	return comps
}

// component counts one component by inclusion–exclusion or by a
// memoized compilation node.
func (e *exactEngine) component(c []int32) (float64, error) {
	if len(c) <= ieMaxImages {
		e.ie = e.ie[:0]
		for _, id := range c {
			e.ie = append(e.ie, e.res[id])
		}
		return unionRatio(e.ie, e.sizes, e.chosen), nil
	}
	key := e.keyOf(c)
	if r, ok := e.memo[key]; ok {
		return r, nil
	}
	if e.nodes++; e.nodes > e.maxNodes {
		return 0, fmt.Errorf("%w: compilation exceeded %d nodes", ErrTooLarge, e.maxNodes)
	}
	if e.nodes%exactCtxStride == 0 {
		if err := e.ctx.Err(); err != nil {
			return 0, fmt.Errorf("synopsis: exact aborted after %d nodes: %w", e.nodes, cqaerr.Canceled(err))
		}
	}
	r, err := e.branch(c)
	if err == nil {
		e.memo[key] = r
	}
	return r, err
}

// keyOf encodes c's residuals as the memo key, a bitset of fixed width:
// a bit per image id in c, then a bit per block that one of their
// residuals has. A residual is its image restricted to those blocks, so
// the key fixes every residual.
func (e *exactEngine) keyOf(c []int32) string {
	clear(e.key)
	n := int32(len(e.res))
	for _, id := range c {
		e.key[id>>3] |= 1 << (id & 7)
		for _, m := range e.res[id] {
			b := n + m.Block
			e.key[b>>3] |= 1 << (b & 7)
		}
	}
	return string(e.key)
}

// branch expands one compilation node over c on the block b that the
// most images touch, ties going to the lowest block id: each member of b
// is kept with probability 1/size(b), which leaves the images without b
// and those with that member, less b. A member that no image names
// leaves only the images without b.
func (e *exactEngine) branch(c []int32) (float64, error) {
	b, most, members := int32(-1), int32(0), 0
	for _, id := range c {
		members += len(e.res[id])
		for _, m := range e.res[id] {
			e.touch[m.Block]++
			if n := e.touch[m.Block]; n > most || (n == most && m.Block < b) {
				b, most = m.Block, n
			}
		}
	}
	for _, id := range c {
		for _, m := range e.res[id] {
			e.touch[m.Block] = 0
		}
	}
	// at[k] is 1 + the member of b in image c[k], or 0. Each image with b
	// loses it for the children, in a copy carved from buf; saved holds
	// the residuals to restore after. An error ends the whole count, so
	// it needs none restored.
	at := make([]int32, len(c))
	saved := make([]Image, len(c))
	buf := make(Image, 0, members)
	without, facts := make([]int32, 0, len(c)), make([]int32, 0, most)
	for k, id := range c {
		r := e.res[id]
		i := slices.IndexFunc(r, func(m Member) bool { return m.Block == b })
		if i < 0 {
			without = append(without, id)
			continue
		}
		at[k] = r[i].Fact + 1
		facts = append(facts, at[k])
		saved[k], buf = r, append(append(buf, r[:i]...), r[i+1:]...)
		e.res[id] = buf[len(buf)-len(r)+1 : len(buf) : len(buf)]
	}
	slices.Sort(facts)
	facts = slices.Compact(facts)
	size := float64(e.sizes[b])
	total := 0.0
	for _, f := range facts {
		child := slices.Clip(without)
		certain := false // an image left empty is in every such database
		for k, id := range c {
			if at[k] == f {
				child = append(child, id)
				certain = certain || len(e.res[id]) == 0
			}
		}
		r := 1.0
		if !certain {
			var err error
			if r, err = e.count(child); err != nil {
				return 0, err
			}
		}
		total += r / size
	}
	if unnamed := size - float64(len(facts)); unnamed > 0 && len(without) > 0 {
		r, err := e.count(without)
		if err != nil {
			return 0, err
		}
		total += r * unnamed / size
	}
	for k, id := range c {
		if at[k] > 0 {
			e.res[id] = saved[k]
		}
	}
	return total, nil
}
