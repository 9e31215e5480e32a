package synopsis

import (
	"fmt"
	"sort"
)

// Components partitions the images of an admissible pair into connected
// components of the block-sharing graph: two images are connected when
// they touch a common block. Databases in db(B) cover images of different
// components independently (the components fix disjoint block sets), so
//
//	R(H, B) = 1 − Π_c (1 − R(H_c, B_c))
//
// which lets ExactRatioAuto replace one 2^|H| inclusion–exclusion
// with one 2^|H_c| per component — exponential only in the largest
// entangled group of images.
func (a *Admissible) Components() [][]int {
	n := len(a.Images)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[rx] = ry
		}
	}
	// Union images sharing a block.
	blockFirst := make(map[int32]int)
	for i, img := range a.Images {
		for _, m := range img {
			if j, ok := blockFirst[m.Block]; ok {
				union(i, j)
			} else {
				blockFirst[m.Block] = i
			}
		}
	}
	groups := make(map[int][]int)
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	var roots []int
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// subPair extracts the sub-pair induced by the given image indexes,
// keeping only the blocks those images touch (untouched blocks cancel in
// the ratio).
func (a *Admissible) subPair(imageIdx []int) *Admissible {
	remap := make(map[int32]int32)
	sub := &Admissible{}
	for _, i := range imageIdx {
		img := make(Image, len(a.Images[i]))
		for k, m := range a.Images[i] {
			lb, ok := remap[m.Block]
			if !ok {
				lb = int32(len(sub.BlockSizes))
				remap[m.Block] = lb
				sub.BlockSizes = append(sub.BlockSizes, a.BlockSizes[m.Block])
			}
			img[k] = Member{Block: lb, Fact: m.Fact}
		}
		sub.Images = append(sub.Images, img)
	}
	sub.Canonicalize()
	return sub
}

// ExactRatioAuto combines the three exact algorithms: component
// factorization with inclusion–exclusion per small component and
// knowledge compilation for components too entangled for it. It is the
// strongest exact baseline the library offers (used by internal/cqa's
// exact answers); it still fails with ErrTooLarge on dense components
// whose compilation exceeds the node budget.
func (a *Admissible) ExactRatioAuto(maxImages, maxNodes int) (float64, error) {
	if len(a.Images) == 0 {
		return 0, nil
	}
	if maxImages <= 0 {
		maxImages = 22
	}
	missProb := 1.0
	for _, comp := range a.Components() {
		sub := a.subPair(comp)
		var r float64
		var err error
		if len(comp) <= maxImages {
			r, err = sub.ExactRatio(maxImages)
		} else {
			r, err = sub.ExactRatioCompiled(maxNodes)
		}
		if err != nil {
			return 0, fmt.Errorf("component of %d images: %w", len(comp), err)
		}
		missProb *= 1 - r
	}
	return 1 - missProb, nil
}
