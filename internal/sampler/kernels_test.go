package sampler

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"cqabench/internal/mt"
	"cqabench/internal/synopsis"
)

// The indexed KL kernel must match the plain one draw for draw: coverage
// checks consume no randomness, so both kernels walk the same PRNG stream.
func TestKLIndexedMatchesPlain(t *testing.T) {
	pair := testPair(t)
	plain := NewKL(pair)
	indexed := NewKLIndexed(pair)
	s1, s2 := mt.New(81), mt.New(81)
	for i := 0; i < 20000; i++ {
		a, b := plain.Sample(s1), indexed.Sample(s2)
		if a != b {
			t.Fatalf("draw %d: plain %v vs indexed %v", i, a, b)
		}
	}
	if indexed.Weight() != plain.Weight() {
		t.Fatal("indexed KL must share the plain kernel's weight")
	}
}

// Likewise for KLM: the reciprocal cover counts must agree exactly.
func TestKLMIndexedMatchesPlain(t *testing.T) {
	pair := testPair(t)
	plain := NewKLM(pair)
	indexed := NewKLMIndexed(pair)
	s1, s2 := mt.New(82), mt.New(82)
	for i := 0; i < 20000; i++ {
		a, b := plain.Sample(s1), indexed.Sample(s2)
		if a != b {
			t.Fatalf("draw %d: plain %v vs indexed %v", i, a, b)
		}
	}
	if indexed.Weight() != plain.Weight() {
		t.Fatal("indexed KLM must share the plain kernel's weight")
	}
}

// Property: plain and indexed kernels agree draw for draw on random pairs
// for every scheme.
func TestIndexedKernelsProperty(t *testing.T) {
	f := func(seed []byte) bool {
		pair := pairFromSeed(seed)
		if pair == nil {
			return true
		}
		kernels := []struct {
			plain, indexed Sampler
		}{
			{NewNatural(pair), NewNaturalIndexed(pair)},
			{NewKL(pair), NewKLIndexed(pair)},
			{NewKLM(pair), NewKLMIndexed(pair)},
		}
		for _, k := range kernels {
			s1, s2 := mt.New(91), mt.New(91)
			for i := 0; i < 2000; i++ {
				if k.plain.Sample(s1) != k.indexed.Sample(s2) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Every kernel's SampleBatch must be byte-identical to the same number of
// one-at-a-time Sample calls: same values, same stream consumption
// (checked by comparing the sources' subsequent output), across uneven
// batch sizes.
func TestSampleBatchMatchesSequential(t *testing.T) {
	pairs := map[string]*synopsis.Admissible{
		"small": testPair(t),
		"huge":  hugePair(),
	}
	for pname, pair := range pairs {
		kernels := map[string]func() Sampler{
			"Natural":        func() Sampler { return NewNatural(pair) },
			"NaturalIndexed": func() Sampler { return NewNaturalIndexed(pair) },
			"KL":             func() Sampler { return NewKL(pair) },
			"KLIndexed":      func() Sampler { return NewKLIndexed(pair) },
			"KLM":            func() Sampler { return NewKLM(pair) },
			"KLMIndexed":     func() Sampler { return NewKLMIndexed(pair) },
		}
		for kname, mk := range kernels {
			t.Run(pname+"/"+kname, func(t *testing.T) {
				seqS, batS := mk(), mk()
				seqSrc, batSrc := mt.New(17), mt.New(17)
				// Uneven sizes exercise batch-boundary handling.
				for _, sz := range []int{1, 7, 256, 3, 100, 1} {
					want := make([]float64, sz)
					for i := range want {
						want[i] = seqS.Sample(seqSrc)
					}
					got := make([]float64, sz)
					batS.SampleBatch(batSrc, got)
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("batch size %d draw %d: sequential %v vs batch %v", sz, i, want[i], got[i])
						}
					}
				}
				// Stream positions must coincide afterwards.
				for i := 0; i < 8; i++ {
					if a, b := seqSrc.Uint64(), batSrc.Uint64(); a != b {
						t.Fatalf("PRNG streams diverged after batching: %x vs %x", a, b)
					}
				}
			})
		}
	}
}

// The selector must be deterministic and pick the indexed kernel exactly
// where the shape model says it wins.
func TestSelectKernel(t *testing.T) {
	// Tiny pair: always plain, the index cannot amortize.
	if k := SelectKernel(testPair(t)); k != Plain {
		t.Fatalf("small pair selected %v, want Plain", k)
	}
	// Huge low-coverage pair: candidate verification is far cheaper than
	// testing 3000 images.
	if k := SelectKernel(hugePair()); k != Indexed {
		t.Fatalf("huge pair selected %v, want Indexed", k)
	}
	// Wide Boolean shape: every image starts with the same member, so
	// the index has one candidate list holding all 444 images, while
	// the sliced test handles them 64 at a time.
	if k := SelectKernel(widePair()); k != Plain {
		t.Fatalf("wide pair selected %v, want Plain", k)
	}
	// Determinism: repeated calls agree.
	p := hugePair()
	first := SelectKernel(p)
	for i := 0; i < 5; i++ {
		if SelectKernel(p) != first {
			t.Fatal("SelectKernel not deterministic")
		}
	}
}

func TestKernelString(t *testing.T) {
	if Plain.String() != "plain" || Indexed.String() != "indexed" {
		t.Fatalf("kernel names: %q, %q", Plain, Indexed)
	}
}

func BenchmarkKLIndexedSample(b *testing.B) {
	s := NewKLIndexed(benchPair())
	src := mt.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(src)
	}
}

func BenchmarkKLMIndexedSample(b *testing.B) {
	s := NewKLMIndexed(benchPair())
	src := mt.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(src)
	}
}

func BenchmarkKLSampleHuge(b *testing.B) {
	s := NewKL(hugePair())
	src := mt.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(src)
	}
}

func BenchmarkKLIndexedSampleHuge(b *testing.B) {
	s := NewKLIndexed(hugePair())
	src := mt.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(src)
	}
}

func BenchmarkKLMSampleHuge(b *testing.B) {
	s := NewKLM(hugePair())
	src := mt.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(src)
	}
}

func BenchmarkKLMIndexedSampleHuge(b *testing.B) {
	s := NewKLMIndexed(hugePair())
	src := mt.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(src)
	}
}

func BenchmarkSampleBatchHuge(b *testing.B) {
	kernels := map[string]Sampler{
		"NaturalIndexed": NewNaturalIndexed(hugePair()),
		"KLIndexed":      NewKLIndexed(hugePair()),
		"KLMIndexed":     NewKLMIndexed(hugePair()),
	}
	for name, s := range kernels {
		b.Run(name, func(b *testing.B) {
			src := mt.New(1)
			buf := make([]float64, 256)
			b.ReportAllocs()
			for i := 0; i < b.N; i += len(buf) {
				s.SampleBatch(src, buf)
			}
		})
	}
}

// wordPair builds a pair of exactly n images for the cross-word
// equivalence test. Blocks come in runs: two of size 1, then three with
// sizes drawn from {2, 3, 4, 5, 24}, 24 being the most likely. The first
// images chain through the blocks five at a time so that every block is
// touched; the rest have three to five members over random blocks, at
// least three of them in blocks larger than 1. No image is then in
// every database, and the union of the images stays well below all of
// db(B) even at n = 444.
func wordPair(n int, seed uint64) *synopsis.Admissible {
	src := mt.New(seed)
	sizes := []int32{2, 3, 4, 5, 24, 24, 24, 24}
	nb := 5 * (2 + n/40) // whole runs, so that every chain has a block larger than 1
	if n == 1 {
		// One image over every block: keep it likely enough to be hit.
		nb, sizes = 5, sizes[:3]
	}
	pair := &synopsis.Admissible{}
	for b := 0; b < nb; b++ {
		sz := int32(1)
		if b%5 >= 2 {
			sz = sizes[src.Intn(len(sizes))]
		}
		pair.BlockSizes = append(pair.BlockSizes, sz)
	}
	seen := map[string]bool{}
	add := func(img synopsis.Image) {
		if key := fmt.Sprint(img); !seen[key] {
			seen[key] = true
			pair.Images = append(pair.Images, img)
		}
	}
	member := func(b int) synopsis.Member {
		return synopsis.Member{Block: int32(b), Fact: int32(src.Intn(int(pair.BlockSizes[b])))}
	}
	if n == 1 {
		var img synopsis.Image
		for b := 0; b < nb; b++ {
			img = append(img, member(b))
		}
		add(img)
	}
	for b := 0; b < nb && len(pair.Images) < n; b += 5 {
		var img synopsis.Image
		for k := b; k < b+5 && k < nb; k++ {
			img = append(img, member(k))
		}
		add(img)
	}
	for len(pair.Images) < n {
		var img synopsis.Image
		wide := 0 // members in blocks of size > 1
		for b := 0; b < nb; b++ {
			if src.Intn(nb) < 4 {
				img = append(img, member(b))
				if pair.BlockSizes[b] > 1 {
					wide++
				}
			}
		}
		if wide >= 3 && len(img) <= 5 {
			add(img)
		}
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		panic(err)
	}
	if pair.NumImages() != n {
		panic(fmt.Sprintf("wordPair: %d images, want %d", pair.NumImages(), n))
	}
	return pair
}

// reference draws with the Admissible reference semantics: Intn per
// block, then FirstCover and CoverCount over the pair's images.
type reference struct {
	pair   *synopsis.Admissible
	alias  *mt.Alias
	chosen []int32
}

func newReference(pair *synopsis.Admissible) *reference {
	w := make([]float64, pair.NumImages())
	for i := range w {
		w[i] = pair.ImageWeight(i)
	}
	return &reference{pair: pair, alias: mt.NewAlias(w), chosen: make([]int32, pair.NumBlocks())}
}

func (r *reference) fill(src *mt.Source) {
	for b, sz := range r.pair.BlockSizes {
		r.chosen[b] = int32(src.Intn(int(sz)))
	}
}

func (r *reference) natural(src *mt.Source) float64 {
	r.fill(src)
	if r.pair.FirstCover(r.chosen) >= 0 {
		return 1
	}
	return 0
}

// symbolic draws (i, I) and returns i.
func (r *reference) symbolic(src *mt.Source) int {
	i := r.alias.Draw(src)
	r.fill(src)
	for _, m := range r.pair.Images[i] {
		r.chosen[m.Block] = m.Fact
	}
	return i
}

// Every kernel must match the reference draw for draw on pairs whose
// images fill one to seven 64-image words, including partial last
// words, blocks of sizes 1 to 24 and runs of size-1 blocks. KL's drawn
// image must land in every word, and the streams must end at the same
// position.
func TestKernelsMatchReferenceAcrossWords(t *testing.T) {
	const draws = 4000
	for _, n := range []int{1, 63, 64, 65, 130, 444} {
		pair := wordPair(n, uint64(n))
		ref := newReference(pair)
		words := (n + 63) / 64
		kernels := []struct {
			name string
			s    Sampler
			want func(*mt.Source) float64
		}{
			{"Natural", NewNatural(pair), ref.natural},
			{"NaturalIndexed", NewNaturalIndexed(pair), ref.natural},
			{"KL", NewKL(pair), func(src *mt.Source) float64 {
				if i := ref.symbolic(src); ref.pair.FirstCover(ref.chosen) == i {
					return 1
				}
				return 0
			}},
			{"KLIndexed", NewKLIndexed(pair), nil},
			{"KLM", NewKLM(pair), func(src *mt.Source) float64 {
				ref.symbolic(src)
				return 1 / float64(ref.pair.CoverCount(ref.chosen))
			}},
			{"KLMIndexed", NewKLMIndexed(pair), nil},
		}
		for k, kern := range kernels {
			if kern.want == nil {
				kern.want = kernels[k-1].want
			}
			t.Run(fmt.Sprintf("H=%d/%s", n, kern.name), func(t *testing.T) {
				s1, s2 := mt.New(21), mt.New(21)
				var hits float64
				for d := 0; d < draws; d++ {
					want, got := kern.want(s1), kern.s.Sample(s2)
					if want != got {
						t.Fatalf("draw %d: reference %v, kernel %v", d, want, got)
					}
					hits += got
				}
				if hits == 0 || (kern.name == "Natural" && hits == draws) {
					t.Fatalf("%v hits in %d draws: the pair does not exercise the coverage test", hits, draws)
				}
				for i := 0; i < 4; i++ {
					if a, b := s1.Uint64(), s2.Uint64(); a != b {
						t.Fatalf("streams diverged after %d draws: %x vs %x", draws, a, b)
					}
				}
			})
		}
		// The symbolic draw itself, and InSet, match the reference; the
		// drawn image lands in every word.
		t.Run(fmt.Sprintf("H=%d/Symbolic", n), func(t *testing.T) {
			s := NewSymbolic(pair)
			s1, s2 := mt.New(22), mt.New(22)
			seen := make([]bool, words)
			for d := 0; d < draws; d++ {
				i, j := ref.symbolic(s1), s.Draw(s2)
				if i != j {
					t.Fatalf("draw %d: reference image %d, Symbolic %d", d, i, j)
				}
				seen[i/64] = true
				for probe := 0; probe < n; probe += 1 + n/16 {
					if ref.pair.Covers(probe, ref.chosen) != s.InSet(probe) {
						t.Fatalf("draw %d: InSet(%d) disagrees with the reference", d, probe)
					}
				}
			}
			for w, ok := range seen {
				if !ok {
					t.Fatalf("no draw landed in word %d of %d", w, words)
				}
			}
			if a, b := s1.Uint64(), s2.Uint64(); a != b {
				t.Fatalf("streams diverged: %x vs %x", a, b)
			}
		})
	}
}

// A one-image pair's plain kernels and symbolic draw store no database:
// Natural matches the image while it draws, and the symbolic draw only
// advances the stream. Every kernel, one draw at a time and then in
// batches, must match the reference draw for draw over blocks of size
// 1, powers of two and other sizes, and leave the stream where it does.
// The reference reads a one-entry alias table's two words itself:
// Intn(1), which masks a word, and a Float64, always below prob[0] = 1.
func TestOneImageMatchesReference(t *testing.T) {
	pair := &synopsis.Admissible{
		BlockSizes: []int32{1, 2, 3, 1, 4, 5, 1},
		Images: []synopsis.Image{{
			{Block: 0}, {Block: 1, Fact: 1}, {Block: 2}, {Block: 3},
			{Block: 4, Fact: 3}, {Block: 5, Fact: 2}, {Block: 6},
		}},
	}
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	ref := newReference(pair)
	symbolic := func(src *mt.Source) int {
		if src.Intn(1) != 0 || src.Float64() >= 1 {
			t.Fatal("a one-entry alias draw is not outcome 0")
		}
		ref.fill(src)
		for _, m := range pair.Images[0] {
			ref.chosen[m.Block] = m.Fact
		}
		return 0
	}
	kl := func(src *mt.Source) float64 {
		if i := symbolic(src); pair.FirstCover(ref.chosen) == i {
			return 1
		}
		return 0
	}
	klm := func(src *mt.Source) float64 {
		symbolic(src)
		return 1 / float64(pair.CoverCount(ref.chosen))
	}
	kernels := []struct {
		name string
		s    Sampler
		want func(*mt.Source) float64
	}{
		{"Natural", NewNatural(pair), ref.natural},
		{"NaturalIndexed", NewNaturalIndexed(pair), ref.natural},
		{"KL", NewKL(pair), kl},
		{"KLIndexed", NewKLIndexed(pair), kl},
		{"KLM", NewKLM(pair), klm},
		{"KLMIndexed", NewKLMIndexed(pair), klm},
	}
	for _, kern := range kernels {
		t.Run(kern.name, func(t *testing.T) {
			s1, s2 := mt.New(23), mt.New(23)
			var hits float64
			check := func(d int, got float64) {
				if want := kern.want(s1); want != got {
					t.Fatalf("draw %d: reference %v, kernel %v", d, want, got)
				}
				hits += got
			}
			d := 0
			for ; d < 3000; d++ {
				check(d, kern.s.Sample(s2))
			}
			for _, sz := range []int{1, 7, 256, 3, 2000, 1, 733} {
				batch := make([]float64, sz)
				kern.s.SampleBatch(s2, batch)
				for _, got := range batch {
					check(d, got)
					d++
				}
			}
			if hits == 0 {
				t.Fatalf("no hit in %d draws: the pair does not exercise the match", d)
			}
			for i := 0; i < 4; i++ {
				if a, b := s1.Uint64(), s2.Uint64(); a != b {
					t.Fatalf("streams diverged after %d draws: %x vs %x", d, a, b)
				}
			}
		})
	}
	t.Run("Symbolic", func(t *testing.T) {
		s := NewSymbolic(pair)
		s1, s2 := mt.New(24), mt.New(24)
		for d := 0; d < 6000; d++ {
			if i, j := symbolic(s1), s.Draw(s2); i != j {
				t.Fatalf("draw %d: reference image %d, Symbolic %d", d, i, j)
			}
			if !slices.Equal(s.chosen, ref.chosen) || !s.InSet(0) {
				t.Fatalf("draw %d: database %v, reference %v", d, s.chosen, ref.chosen)
			}
		}
		// A coverage step of a one-image pair draws image 0 with
		// Intn(1), which covers, and draws again.
		for _, n := range []int{1, 255, 1000} {
			for k := 0; k < n; k++ {
				if s1.Intn(1) != 0 || symbolic(s1) != 0 {
					t.Fatal("a one-image coverage step is not image 0")
				}
			}
			s.WalkOne(s2, n)
			if !slices.Equal(s.chosen, ref.chosen) || !s.InSet(0) {
				t.Fatalf("after %d steps: database %v, reference %v", n, s.chosen, ref.chosen)
			}
		}
		if a, b := s1.Uint64(), s2.Uint64(); a != b {
			t.Fatalf("streams diverged: %x vs %x", a, b)
		}
	})
}

// planOf returns the compiled plan a kernel draws through.
func planOf(s Sampler) *plan {
	switch k := s.(type) {
	case *Natural:
		return k.plan
	case *NaturalIndexed:
		return k.plan
	case *KL:
		return k.plan
	case *KLM:
		return k.plan
	case *KLIndexed:
		return k.plan
	case *KLMIndexed:
		return k.plan
	}
	return nil
}

// A fork shares its parent's plan, draws identically, and can run
// concurrently with it and with other forks (run under -race), on a
// multi-word pair and on a one-image pair, whose plan holds the image.
func TestForkSharesPlan(t *testing.T) {
	var samplers []Sampler
	for _, pair := range []*synopsis.Admissible{wordPair(130, 5), wordPair(1, 5)} {
		samplers = append(samplers,
			NewNatural(pair), NewNaturalIndexed(pair),
			NewKL(pair), NewKLIndexed(pair),
			NewKLM(pair), NewKLMIndexed(pair))
	}
	for _, s := range samplers {
		want := make([]float64, 512)
		s.SampleBatch(mt.New(3), want)
		forks := []Sampler{s, s.Fork(), s.Fork(), s.Fork()}
		got := make([][]float64, len(forks))
		var wg sync.WaitGroup
		for i, f := range forks {
			if planOf(f) == nil || planOf(f) != planOf(s) {
				t.Fatalf("%T: fork does not share the plan", s)
			}
			got[i] = make([]float64, len(want))
			wg.Add(1)
			go func(f Sampler, dst []float64) {
				defer wg.Done()
				f.SampleBatch(mt.New(3), dst)
			}(f, got[i])
		}
		wg.Wait()
		for i := range forks {
			for d := range want {
				if got[i][d] != want[d] {
					t.Fatalf("%T fork %d draw %d: %v, want %v", s, i, d, got[i][d], want[d])
				}
			}
		}
	}
}
