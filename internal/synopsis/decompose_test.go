package synopsis

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestComponentsDisjointImages(t *testing.T) {
	pair := &Admissible{
		BlockSizes: []int32{2, 2, 2, 2},
		Images: []Image{
			{{Block: 0, Fact: 0}},
			{{Block: 1, Fact: 0}, {Block: 2, Fact: 1}},
			{{Block: 3, Fact: 0}},
			{{Block: 2, Fact: 0}}, // shares block 2 with image 1
		},
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	comps := pair.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3 ({0}, {1,3 via block 2}, {2})", len(comps))
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
}

func TestComponentsSingle(t *testing.T) {
	pair := &Admissible{
		BlockSizes: []int32{2, 2},
		Images: []Image{
			{{Block: 0, Fact: 0}, {Block: 1, Fact: 0}},
			{{Block: 0, Fact: 1}},
		},
	}
	pair.Canonicalize()
	if got := pair.Components(); len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("components = %v", got)
	}
}

func TestDecomposedMatchesDirect(t *testing.T) {
	pair := &Admissible{
		BlockSizes: []int32{2, 3, 2, 4, 2},
		Images: []Image{
			{{Block: 0, Fact: 0}},
			{{Block: 1, Fact: 1}, {Block: 2, Fact: 0}},
			{{Block: 3, Fact: 2}},
			{{Block: 4, Fact: 1}},
			{{Block: 1, Fact: 0}},
		},
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	direct, err := pair.ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := pair.ExactRatioAuto(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct-auto) > 1e-12 {
		t.Fatalf("direct %v vs decomposed %v", direct, auto)
	}
}

// The decomposition's reason to exist: many independent single-image
// components exceed the flat inclusion-exclusion limit but remain exact
// under decomposition.
func TestDecomposedScalesBeyondFlatLimit(t *testing.T) {
	pair := &Admissible{}
	for i := 0; i < 40; i++ {
		pair.BlockSizes = append(pair.BlockSizes, 2)
		pair.Images = append(pair.Images, Image{{Block: int32(i), Fact: 0}})
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := pair.ExactRatio(22); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("flat inclusion-exclusion unexpectedly handled 40 images: %v", err)
	}
	got, err := pair.ExactRatioAuto(22, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Pow(0.5, 40)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("decomposed = %v, want %v", got, want)
	}
}

// One giant entangled component: decomposition cannot help, so
// inclusion–exclusion refuses it and ExactRatioAuto compiles it.
func TestDecomposedLargeComponentStillFails(t *testing.T) {
	pair := &Admissible{BlockSizes: []int32{2}}
	for i := 0; i < 30; i++ {
		pair.BlockSizes = append(pair.BlockSizes, 2)
		pair.Images = append(pair.Images, Image{{Block: 0, Fact: 0}, {Block: int32(i + 1), Fact: 0}})
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := pair.ExactRatio(22); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	compiled, err := pair.ExactRatioCompiled(0)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := pair.ExactRatioAuto(22, 0)
	if err != nil || math.Abs(auto-compiled) > 1e-12 {
		t.Fatalf("auto %v (%v) vs compiled %v", auto, err, compiled)
	}
}

func TestDecomposedEmpty(t *testing.T) {
	pair := &Admissible{}
	r, err := pair.ExactRatioAuto(0, 0)
	if err != nil || r != 0 {
		t.Fatalf("empty pair: %v, %v", r, err)
	}
}

// Property: decomposition always agrees with brute force on random pairs.
func TestDecomposedProperty(t *testing.T) {
	f := func(seed []byte) bool {
		pair := randomPair(seed)
		if pair == nil {
			return true
		}
		bf, err1 := pair.BruteForceRatio(0)
		dec, err2 := pair.ExactRatioAuto(0, 0)
		if err1 != nil || err2 != nil {
			return true
		}
		return math.Abs(bf-dec) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoCombinesAlgorithms(t *testing.T) {
	// Two components: a small dense one (inclusion-exclusion) and a long
	// chain (compilation).
	pair := &Admissible{}
	for b := 0; b < 3; b++ {
		pair.BlockSizes = append(pair.BlockSizes, 2)
	}
	pair.Images = append(pair.Images,
		Image{{Block: 0, Fact: 0}, {Block: 1, Fact: 0}},
		Image{{Block: 1, Fact: 1}, {Block: 2, Fact: 0}},
	)
	chainStart := int32(len(pair.BlockSizes))
	const n = 40
	for b := 0; b <= n; b++ {
		pair.BlockSizes = append(pair.BlockSizes, 2)
	}
	for i := 0; i < n; i++ {
		pair.Images = append(pair.Images, Image{
			{Block: chainStart + int32(i), Fact: 0},
			{Block: chainStart + int32(i) + 1, Fact: 0},
		})
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := pair.ExactRatioAuto(22, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || got >= 1 {
		t.Fatalf("auto ratio = %v out of open interval", got)
	}
	// Agreement with full compilation (which handles both components).
	comp, err := pair.ExactRatioCompiled(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-comp) > 1e-9 {
		t.Fatalf("auto %v vs compiled %v", got, comp)
	}
}

func TestAutoEmpty(t *testing.T) {
	pair := &Admissible{}
	if r, err := pair.ExactRatioAuto(0, 0); err != nil || r != 0 {
		t.Fatalf("empty: %v, %v", r, err)
	}
}
