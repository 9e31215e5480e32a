package sampler

import (
	"math"
	"testing"
	"testing/quick"

	"cqabench/internal/mt"
	"cqabench/internal/synopsis"
)

// testPair returns a hand-built admissible pair with overlapping images so
// all three samplers behave differently.
func testPair(t *testing.T) *synopsis.Admissible {
	t.Helper()
	pair := &synopsis.Admissible{
		BlockSizes: []int32{2, 3, 2},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 0}},
			{{Block: 0, Fact: 0}, {Block: 1, Fact: 1}},
			{{Block: 1, Fact: 2}, {Block: 2, Fact: 0}},
		},
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	return pair
}

func empiricalMean(s interface {
	Sample(*mt.Source) float64
}, src *mt.Source, n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Sample(src)
	}
	return sum / float64(n)
}

func TestNaturalExpectedValue(t *testing.T) {
	pair := testPair(t)
	want, err := pair.ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	got := empiricalMean(NewNatural(pair), mt.New(1), 200000)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("E[Natural] = %.4f, want %.4f", got, want)
	}
}

func TestNaturalOutputsBinary(t *testing.T) {
	pair := testPair(t)
	n := NewNatural(pair)
	src := mt.New(2)
	for i := 0; i < 1000; i++ {
		v := n.Sample(src)
		if v != 0 && v != 1 {
			t.Fatalf("Natural sample = %v", v)
		}
	}
}

func TestKLExpectedValue(t *testing.T) {
	pair := testPair(t)
	r, err := pair.ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	kl := NewKL(pair)
	want := r / kl.Weight() // Num/|S•| = R * |db|/|S•|
	got := empiricalMean(kl, mt.New(3), 200000)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("E[KL] = %.4f, want %.4f", got, want)
	}
	if kl.Weight() != pair.SymbolicWeight() {
		t.Fatal("KL's weight is not the pair's |S•|/|db(B)|")
	}
}

func TestKLMExpectedValue(t *testing.T) {
	pair := testPair(t)
	r, err := pair.ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	klm := NewKLM(pair)
	want := r / klm.Weight()
	got := empiricalMean(klm, mt.New(4), 200000)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("E[KLM] = %.4f, want %.4f", got, want)
	}
}

func TestKLMOutputsReciprocal(t *testing.T) {
	pair := testPair(t)
	klm := NewKLM(pair)
	src := mt.New(5)
	n := pair.NumImages()
	for i := 0; i < 1000; i++ {
		v := klm.Sample(src)
		// Must be 1/k for integer k in [1, |H|].
		k := math.Round(1 / v)
		if k < 1 || k > float64(n) || math.Abs(v-1/k) > 1e-12 {
			t.Fatalf("KLM sample = %v not of form 1/k", v)
		}
	}
}

func TestSymbolicDrawContainsImage(t *testing.T) {
	pair := testPair(t)
	s := NewSymbolic(pair)
	src := mt.New(6)
	for k := 0; k < 2000; k++ {
		i := s.Draw(src)
		if !s.InSet(i) {
			t.Fatalf("drawn I does not contain H_%d", i)
		}
	}
}

func TestSymbolicImageDistribution(t *testing.T) {
	pair := testPair(t)
	s := NewSymbolic(pair)
	src := mt.New(7)
	const draws = 300000
	counts := make([]int, pair.NumImages())
	for k := 0; k < draws; k++ {
		counts[s.Draw(src)]++
	}
	total := pair.SymbolicWeight()
	for i := range counts {
		want := pair.ImageWeight(i) / total
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.005 {
			t.Fatalf("image %d drawn with frequency %.4f, want %.4f", i, got, want)
		}
	}
}

// The KL(M) samplers' whole point: when R is tiny because the answer is
// witnessed by a single image among many blocks, the symbolic expected
// value stays large.
func TestSymbolicBeatsNaturalOnSparsePairs(t *testing.T) {
	pair := &synopsis.Admissible{
		BlockSizes: []int32{5, 5, 5, 5, 5, 5},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 0}, {Block: 1, Fact: 0}, {Block: 2, Fact: 0}, {Block: 3, Fact: 0}, {Block: 4, Fact: 0}, {Block: 5, Fact: 0}},
		},
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := pair.ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	if r > 1e-4 { // 1/5^6
		t.Fatalf("R = %v, expected tiny", r)
	}
	kl := NewKL(pair)
	// With a single image, every KL sample is 1: expected value 1 >> R.
	if got := empiricalMean(kl, mt.New(8), 1000); got != 1 {
		t.Fatalf("E[KL] = %v, want exactly 1 for single image", got)
	}
}

func TestKLMVarianceNotLargerThanKL(t *testing.T) {
	pair := testPair(t)
	src1, src2 := mt.New(9), mt.New(9)
	kl, klm := NewKL(pair), NewKLM(pair)
	const n = 200000
	varOf := func(f func() float64) float64 {
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := f()
			sum += v
			sumsq += v * v
		}
		mean := sum / n
		return sumsq/n - mean*mean
	}
	vKL := varOf(func() float64 { return kl.Sample(src1) })
	vKLM := varOf(func() float64 { return klm.Sample(src2) })
	// Statistically vKLM <= vKL; allow small estimation slack.
	if vKLM > vKL+0.01 {
		t.Fatalf("Var[KLM] = %.5f > Var[KL] = %.5f", vKLM, vKL)
	}
}

// Property: on random admissible pairs, all three samplers' empirical
// means match their exact expected values.
func TestSamplerExpectedValuesProperty(t *testing.T) {
	f := func(seed []byte) bool {
		pair := pairFromSeed(seed)
		if pair == nil {
			return true
		}
		r, err := pair.ExactRatio(0)
		if err != nil {
			return true
		}
		src := mt.New(123)
		const n = 40000
		if got := empiricalMean(NewNatural(pair), src, n); math.Abs(got-r) > 0.03 {
			return false
		}
		kl := NewKL(pair)
		want := r / kl.Weight()
		if got := empiricalMean(kl, src, n); math.Abs(got-want) > 0.03 {
			return false
		}
		klm := NewKLM(pair)
		if got := empiricalMean(klm, src, n); math.Abs(got-want) > 0.03 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// pairFromSeed builds a small random admissible pair (mirrors the synopsis
// package's test generator).
func pairFromSeed(seed []byte) *synopsis.Admissible {
	if len(seed) < 4 {
		return nil
	}
	nBlocks := int(seed[0]%3) + 1
	nImages := int(seed[1]%4) + 1
	pair := &synopsis.Admissible{}
	for b := 0; b < nBlocks; b++ {
		pair.BlockSizes = append(pair.BlockSizes, int32(seed[(2+b)%len(seed)]%3)+1)
	}
	pos := 2 + nBlocks
	next := func() byte {
		b := seed[pos%len(seed)]
		pos++
		return b
	}
	for i := 0; i < nImages; i++ {
		var img synopsis.Image
		for b := 0; b < nBlocks; b++ {
			if next()%2 == 0 {
				img = append(img, synopsis.Member{Block: int32(b), Fact: int32(next()) % pair.BlockSizes[b]})
			}
		}
		if len(img) == 0 {
			img = synopsis.Image{{Block: 0, Fact: int32(next()) % pair.BlockSizes[0]}}
		}
		pair.Images = append(pair.Images, img)
	}
	pair.Canonicalize()
	touched := make([]bool, nBlocks)
	for _, img := range pair.Images {
		for _, m := range img {
			touched[m.Block] = true
		}
	}
	remap := make([]int32, nBlocks)
	var sizes []int32
	for b := 0; b < nBlocks; b++ {
		if touched[b] {
			remap[b] = int32(len(sizes))
			sizes = append(sizes, pair.BlockSizes[b])
		}
	}
	for _, img := range pair.Images {
		for k := range img {
			img[k].Block = remap[img[k].Block]
		}
	}
	pair.BlockSizes = sizes
	if pair.Validate() != nil {
		return nil
	}
	return pair
}

func BenchmarkNaturalSample(b *testing.B) {
	pair := benchPair()
	s := NewNatural(pair)
	src := mt.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(src)
	}
}

func BenchmarkKLSample(b *testing.B) {
	pair := benchPair()
	s := NewKL(pair)
	src := mt.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(src)
	}
}

func BenchmarkKLMSample(b *testing.B) {
	pair := benchPair()
	s := NewKLM(pair)
	src := mt.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(src)
	}
}

// benchPair builds a moderately large pair: 40 blocks, 60 images.
func benchPair() *synopsis.Admissible {
	pair := &synopsis.Admissible{}
	for b := 0; b < 40; b++ {
		pair.BlockSizes = append(pair.BlockSizes, int32(b%4)+2)
	}
	src := mt.New(99)
	for i := 0; i < 60; i++ {
		var img synopsis.Image
		for b := 0; b < 40; b++ {
			if src.Intn(8) == 0 {
				img = append(img, synopsis.Member{Block: int32(b), Fact: int32(src.Intn(int(pair.BlockSizes[b])))})
			}
		}
		if len(img) == 0 {
			img = synopsis.Image{{Block: int32(i % 40), Fact: 0}}
		}
		pair.Images = append(pair.Images, img)
	}
	pair.Canonicalize()
	// Ensure every block touched.
	touched := make([]bool, len(pair.BlockSizes))
	for _, img := range pair.Images {
		for _, m := range img {
			touched[m.Block] = true
		}
	}
	for b, ok := range touched {
		if !ok {
			pair.Images = append(pair.Images, synopsis.Image{{Block: int32(b), Fact: 0}})
		}
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		panic(err)
	}
	return pair
}

// The natural sampler must draw each block member uniformly: chi-squared
// over the chosen member of one block.
func TestNaturalUniformPerBlock(t *testing.T) {
	pair := &synopsis.Admissible{
		BlockSizes: []int32{5},
		Images:     []synopsis.Image{{{Block: 0, Fact: 0}}},
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	n := NewNatural(pair)
	src := mt.New(51)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if n.Sample(src) == 1 {
			hits++
		}
	}
	// Member 0 of a 5-member block: expected hit rate exactly 1/5.
	p := float64(hits) / draws
	if math.Abs(p-0.2) > 0.01 {
		t.Fatalf("member 0 chosen with frequency %.4f, want 0.2", p)
	}
}

// The indexed natural sampler must match the plain one draw for draw: the
// same PRNG stream consumes identically (block choices first), so both
// samplers see the same databases.
func TestNaturalIndexedMatchesPlain(t *testing.T) {
	pair := testPair(t)
	plain := NewNatural(pair)
	indexed := NewNaturalIndexed(pair)
	s1, s2 := mt.New(61), mt.New(61)
	for i := 0; i < 20000; i++ {
		a, b := plain.Sample(s1), indexed.Sample(s2)
		if a != b {
			t.Fatalf("draw %d: plain %v vs indexed %v", i, a, b)
		}
	}
}

// Property: both natural samplers agree on random pairs.
func TestNaturalIndexedProperty(t *testing.T) {
	f := func(seed []byte) bool {
		pair := pairFromSeed(seed)
		if pair == nil {
			return true
		}
		s1, s2 := mt.New(71), mt.New(71)
		plain := NewNatural(pair)
		indexed := NewNaturalIndexed(pair)
		for i := 0; i < 3000; i++ {
			if plain.Sample(s1) != indexed.Sample(s2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNaturalIndexedSample(b *testing.B) {
	pair := benchPair()
	s := NewNaturalIndexed(pair)
	src := mt.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(src)
	}
}

// hugePair models the hard regime for the natural sampler: thousands of
// images over large blocks with low coverage, so a plain scan must reject
// every image on most samples. This is where the first-member index pays.
func hugePair() *synopsis.Admissible {
	pair := &synopsis.Admissible{}
	const nBlocks = 30
	const blockSize = 24
	for b := 0; b < nBlocks; b++ {
		pair.BlockSizes = append(pair.BlockSizes, blockSize)
	}
	src := mt.New(3)
	for i := 0; i < 3000; i++ {
		b1 := int32(src.Intn(nBlocks))
		b2 := int32(src.Intn(nBlocks))
		img := synopsis.Image{{Block: b1, Fact: int32(src.Intn(blockSize))}}
		if b2 != b1 {
			img = append(img, synopsis.Member{Block: b2, Fact: int32(src.Intn(blockSize))})
		}
		pair.Images = append(pair.Images, img)
	}
	pair.Canonicalize()
	touched := make([]bool, nBlocks)
	for _, img := range pair.Images {
		for _, m := range img {
			touched[m.Block] = true
		}
	}
	for b, ok := range touched {
		if !ok {
			pair.Images = append(pair.Images, synopsis.Image{{Block: int32(b), Fact: 0}})
		}
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		panic(err)
	}
	return pair
}

func BenchmarkNaturalSampleHuge(b *testing.B) {
	s := NewNatural(hugePair())
	src := mt.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(src)
	}
}

func BenchmarkNaturalIndexedSampleHuge(b *testing.B) {
	s := NewNaturalIndexed(hugePair())
	src := mt.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(src)
	}
}

// widePair has the shape of the Boolean synopsis the plain kernels are
// selected for: 444 four-member images over 45 blocks (26 of size 1, 8
// of size 2, 5 of size 3, 2 of size 4, 4 of size 5), every image
// starting with the same fact of a size-2 block. Most images share
// their first three members and differ in the last, so a coverage test
// cannot reject them on their first member alone.
func widePair() *synopsis.Admissible {
	pair := &synopsis.Admissible{BlockSizes: []int32{
		2, 1, 5, 2, 1, 1, 1, 2, 1, 2, 2, 1, 1, 1, 1, 3, 2, 1, 1, 4, 3, 3, 1,
		1, 5, 3, 1, 1, 4, 1, 5, 1, 2, 1, 1, 3, 1, 5, 1, 1, 1, 1, 1, 1, 2,
	}}
	add := func(ms ...synopsis.Member) { pair.Images = append(pair.Images, ms) }
	for b := int32(6); b < int32(len(pair.BlockSizes)); b++ {
		for f := int32(0); f < pair.BlockSizes[b]; f++ {
			for x := int32(0); x < 5; x++ {
				add(synopsis.Member{Block: 0}, synopsis.Member{Block: 2, Fact: x}, synopsis.Member{Block: 3}, synopsis.Member{Block: b, Fact: f})
			}
			add(synopsis.Member{Block: 0}, synopsis.Member{Block: 4}, synopsis.Member{Block: 5}, synopsis.Member{Block: b, Fact: f})
		}
	}
	for x := int32(0); x < 5; x++ {
		add(synopsis.Member{Block: 0}, synopsis.Member{Block: 1}, synopsis.Member{Block: 2, Fact: x}, synopsis.Member{Block: 3})
	}
	add(synopsis.Member{Block: 0}, synopsis.Member{Block: 1}, synopsis.Member{Block: 4}, synopsis.Member{Block: 5})
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		panic(err)
	}
	return pair
}
