package synopsis

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestCompiledMatchesBruteForce(t *testing.T) {
	pair := &Admissible{
		BlockSizes: []int32{2, 3, 2, 4},
		Images: []Image{
			{{Block: 0, Fact: 0}, {Block: 1, Fact: 2}},
			{{Block: 1, Fact: 2}, {Block: 2, Fact: 1}},
			{{Block: 0, Fact: 1}, {Block: 3, Fact: 3}},
			{{Block: 2, Fact: 0}},
		},
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	bf, err := pair.BruteForceRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := pair.ExactRatioCompiled(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bf-comp) > 1e-12 {
		t.Fatalf("brute force %v vs compiled %v", bf, comp)
	}
}

// A 60-image chain: images i and i+1 share a block. Inclusion–exclusion
// is 2^60 and decomposition sees one giant component, but compilation
// solves it via memoized linear structure, so ExactRatioAuto does too.
func TestCompiledHandlesChains(t *testing.T) {
	pair := &Admissible{}
	const n = 60
	for b := 0; b <= n; b++ {
		pair.BlockSizes = append(pair.BlockSizes, 2)
	}
	for i := 0; i < n; i++ {
		pair.Images = append(pair.Images, Image{
			{Block: int32(i), Fact: 0},
			{Block: int32(i + 1), Fact: 0},
		})
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := pair.ExactRatio(22); !errors.Is(err, ErrTooLarge) {
		t.Fatal("flat inclusion-exclusion should refuse 60 images")
	}
	got, err := pair.ExactRatioCompiled(0)
	if err != nil {
		t.Fatal(err)
	}
	if auto, err := pair.ExactRatioAuto(22, 0); err != nil || math.Abs(auto-got) > 1e-12 {
		t.Fatalf("auto %v (%v) vs compiled %v: one giant component is compiled", auto, err, got)
	}
	// Sanity: probability of some adjacent 00-pair in a uniform bit string
	// of length 61. Check against a small-n recurrence: let q(n) be the
	// probability NO adjacent pair of zeros among n+1 bits; count strings
	// with no two consecutive zeros = Fibonacci(n+3).
	fib := make([]float64, 64+3)
	fib[1], fib[2] = 1, 2
	for i := 3; i < len(fib); i++ {
		fib[i] = fib[i-1] + fib[i-2]
	}
	want := 1 - fib[n+2]/math.Pow(2, float64(n+1))
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("chain ratio = %v, want %v", got, want)
	}
}

func TestCompiledNodeLimit(t *testing.T) {
	// A dense random pair with a tiny node budget must refuse.
	pair := benchLikePair()
	if _, err := pair.ExactRatioCompiled(3); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("node limit not enforced: %v", err)
	}
}

func benchLikePair() *Admissible {
	pair := &Admissible{BlockSizes: []int32{2, 2, 2, 2, 2, 2}}
	for i := 0; i < 10; i++ {
		img := Image{
			{Block: int32(i % 6), Fact: int32(i % 2)},
			{Block: int32((i + 2) % 6), Fact: int32((i + 1) % 2)},
		}
		pair.Images = append(pair.Images, img)
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		panic(err)
	}
	return pair
}

func TestCompiledEmpty(t *testing.T) {
	pair := &Admissible{}
	r, err := pair.ExactRatioCompiled(0)
	if err != nil || r != 0 {
		t.Fatalf("empty: %v, %v", r, err)
	}
}

func TestCompiledCertainTuple(t *testing.T) {
	// Both members of the only block are covered: frequency 1.
	pair := &Admissible{
		BlockSizes: []int32{2},
		Images: []Image{
			{{Block: 0, Fact: 0}},
			{{Block: 0, Fact: 1}},
		},
	}
	pair.Canonicalize()
	r, err := pair.ExactRatioCompiled(0)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("certain pair: %v, %v", r, err)
	}
}

// Property: all three exact algorithms agree on random pairs.
func TestThreeExactAlgorithmsAgreeProperty(t *testing.T) {
	f := func(seed []byte) bool {
		pair := randomPair(seed)
		if pair == nil {
			return true
		}
		bf, err1 := pair.BruteForceRatio(0)
		dec, err2 := pair.ExactRatioAuto(0, 0)
		comp, err3 := pair.ExactRatioCompiled(0)
		if err1 != nil || err2 != nil || err3 != nil {
			return true
		}
		return math.Abs(bf-dec) < 1e-9 && math.Abs(bf-comp) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExactInclusionExclusion(b *testing.B) {
	pair := benchLikePair()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pair.ExactRatio(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactCompiled(b *testing.B) {
	pair := benchLikePair()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pair.ExactRatioCompiled(0); err != nil {
			b.Fatal(err)
		}
	}
}
