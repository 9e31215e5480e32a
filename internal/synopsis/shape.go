package synopsis

// Shape summarizes the quantities kernel selection is based on. All
// fields derive from the pair alone, so the choice of sampling kernel is
// a pure function of synopsis shape.
type Shape struct {
	Images    int     // |H|
	Blocks    int     // |B|
	MeanBlock float64 // mean block cardinality
	MeanWidth float64 // mean image width |H_i|
	// FirstBlocks counts the distinct blocks appearing as some image's
	// first member — the lookups a first-member index performs per draw.
	FirstBlocks int
	// ExpectedCandidates is the expected number of candidate images a
	// first-member index visits per uniform draw from db(B):
	// Σ_b |{i : first(H_i) ∈ block b}| / size(b).
	ExpectedCandidates float64
}

// ShapeOf computes the pair's kernel-selection shape. O(|H| + |B|).
func (a *Admissible) ShapeOf() Shape {
	s := Shape{Images: len(a.Images), Blocks: len(a.BlockSizes)}
	var sizeSum float64
	for _, sz := range a.BlockSizes {
		sizeSum += float64(sz)
	}
	if s.Blocks > 0 {
		s.MeanBlock = sizeSum / float64(s.Blocks)
	}
	firstCount := make(map[int32]int, len(a.BlockSizes))
	members := 0
	for _, img := range a.Images {
		members += len(img)
		firstCount[img[0].Block]++
	}
	if s.Images > 0 {
		s.MeanWidth = float64(members) / float64(s.Images)
	}
	s.FirstBlocks = len(firstCount)
	for b, n := range firstCount {
		s.ExpectedCandidates += float64(n) / float64(a.BlockSizes[b])
	}
	return s
}
