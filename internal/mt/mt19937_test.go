package mt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Reference outputs of mt19937-64.c seeded via init_genrand64(5489).
// These pin our stream to the canonical implementation.
var refSeed5489 = []uint64{
	14514284786278117030,
	4620546740167642908,
	13109570281517897720,
	17462938647148434322,
	355488278567739596,
	7469126240319926998,
	4635995468481642529,
	418970542659199878,
	9604170989252516556,
	6358044926049913402,
}

func TestReferenceStream(t *testing.T) {
	s := New(DefaultSeed)
	for i, want := range refSeed5489 {
		if got := s.Uint64(); got != want {
			t.Fatalf("output %d: got %d, want %d", i, got, want)
		}
	}
}

func TestSeedBySliceReference(t *testing.T) {
	// First outputs of init_by_array64({0x12345, 0x23456, 0x34567, 0x45678})
	// from the reference mt19937-64.out.txt.
	want := []uint64{
		7266447313870364031,
		4946485549665804864,
		16945909448695747420,
		16394063075524226720,
		4873882236456199058,
	}
	s := &Source{}
	s.SeedBySlice([]uint64{0x12345, 0x23456, 0x34567, 0x45678})
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("output %d: got %d, want %d", i, got, w)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams for different seeds agree on %d of 100 outputs", same)
	}
}

func TestInt63NonNegative(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative %d", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(11)
	for _, n := range []int{1, 2, 3, 7, 8, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	// Chi-squared with 9 dof; 99.9% critical value is 27.88.
	var chi2 float64
	expected := float64(draws) / n
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Fatalf("Intn(%d) chi2 = %.2f exceeds 27.88; counts %v", n, chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(17)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	s := New(29)
	xs := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: %v", xs)
	}
}

func TestRandSourceCompatibility(t *testing.T) {
	// Source must be usable as a math/rand source.
	r := rand.New(New(31))
	for i := 0; i < 100; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("rand.Intn via Source out of range: %d", v)
		}
	}
}

// A one-entry table draws 0 and reads the words of Intn(1) and of one
// Float64, which is below prob[0] = 1 whatever the weight. An odd start
// puts the two words on both sides of a refill.
func TestAliasSingleOutcome(t *testing.T) {
	for _, w := range []float64{3.5, 1, 1e-300, 0.1, 1e308} {
		a := NewAlias([]float64{w})
		if a.prob[0] != 1 {
			t.Fatalf("weight %v: prob[0] = %v, want 1", w, a.prob[0])
		}
		s, ref := New(37), New(37)
		s.Uint64()
		ref.Uint64()
		for i := 0; i < 1000; i++ {
			if a.Draw(s) != 0 {
				t.Fatal("single-outcome alias drew non-zero index")
			}
			if ref.Intn(1) != 0 || ref.Float64() >= 1 {
				t.Fatal("the reference words do not draw outcome 0")
			}
		}
		if s.index != ref.index || s.Uint64() != ref.Uint64() {
			t.Fatalf("weight %v: alias stream at %d, reference at %d", w, s.index, ref.index)
		}
	}
}

func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	a := NewAlias([]float64{1, 0, 1})
	s := New(41)
	for i := 0; i < 10000; i++ {
		if a.Draw(s) == 1 {
			t.Fatal("alias drew zero-weight outcome")
		}
	}
}

func TestAliasDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a := NewAlias(weights)
	s := New(43)
	const draws = 400000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Draw(s)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.005 {
			t.Fatalf("outcome %d: frequency %.4f, want %.4f", i, got, want)
		}
	}
}

func TestAliasPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"zero-sum": {0, 0},
		"negative": {1, -1},
		"nan":      {math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAlias(%s) did not panic", name)
				}
			}()
			NewAlias(weights)
		}()
	}
}

func TestAliasMatchesWeightsProperty(t *testing.T) {
	// Property: for random small weight vectors, empirical frequencies
	// track normalized weights.
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 6 {
			return true
		}
		weights := make([]float64, len(raw))
		var sum float64
		for i, r := range raw {
			weights[i] = float64(r%10) + 0.5
			sum += weights[i]
		}
		a := NewAlias(weights)
		s := New(47)
		const draws = 60000
		counts := make([]int, len(weights))
		for i := 0; i < draws; i++ {
			counts[a.Draw(s)]++
		}
		for i := range weights {
			want := weights[i] / sum
			got := float64(counts[i]) / draws
			if math.Abs(got-want) > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(DefaultSeed)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(DefaultSeed)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Intn(1000)
	}
}

func BenchmarkAliasDraw(b *testing.B) {
	weights := make([]float64, 1024)
	for i := range weights {
		weights[i] = float64(i%7) + 1
	}
	a := NewAlias(weights)
	s := New(DefaultSeed)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Draw(s)
	}
}
