package synopsis

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"cqabench/internal/cqaerr"
)

// exactOf runs Exact under a background context, failing the test on an
// error.
func exactOf(t *testing.T, pair *Admissible) float64 {
	t.Helper()
	r, err := pair.Exact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustPair(t *testing.T, pair *Admissible) *Admissible {
	t.Helper()
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	return pair
}

func TestCompiledMatchesBruteForce(t *testing.T) {
	pair := mustPair(t, &Admissible{
		BlockSizes: []int32{2, 3, 2, 4},
		Images: []Image{
			{{Block: 0, Fact: 0}, {Block: 1, Fact: 2}},
			{{Block: 1, Fact: 2}, {Block: 2, Fact: 1}},
			{{Block: 0, Fact: 1}, {Block: 3, Fact: 3}},
			{{Block: 2, Fact: 0}},
		},
	})
	bf, err := pair.BruteForceRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := exactOf(t, pair); math.Abs(bf-got) > 1e-12 {
		t.Fatalf("brute force %v vs exact %v", bf, got)
	}
}

// chainPair is n images over n+1 blocks of size 2, images i and i+1
// sharing block i+1.
func chainPair(n int) *Admissible {
	pair := &Admissible{}
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
	return pair
}

// A 60-image chain is one component of 60 images: inclusion–exclusion
// would take 2^60 subsets, but the compiled count memoizes the chain's
// suffixes.
func TestCompiledHandlesChains(t *testing.T) {
	const n = 60
	pair := mustPair(t, chainPair(n))
	if _, err := pair.ExactRatio(22); !errors.Is(err, ErrTooLarge) {
		t.Fatal("flat inclusion-exclusion should refuse 60 images")
	}
	got := exactOf(t, pair)
	// The probability of some adjacent pair of zeros in a uniform bit
	// string of length n+1: strings with no two consecutive zeros number
	// Fibonacci(n+3).
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

// The node bound holds: the chain needs more than three compilation
// nodes.
func TestCompiledNodeLimit(t *testing.T) {
	pair := chainPair(30)
	if _, err := pair.exact(context.Background(), 3); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("node limit not enforced: %v", err)
	}
	if _, err := pair.exact(context.Background(), exactMaxNodes); err != nil {
		t.Fatal(err)
	}
}

func TestCompiledEmpty(t *testing.T) {
	if r, err := (&Admissible{}).Exact(context.Background()); err != nil || r != 0 {
		t.Fatalf("empty: %v, %v", r, err)
	}
}

// The empty pair is answered before any compilation node: a bound of
// zero nodes still gives 0.
func TestAutoEmpty(t *testing.T) {
	if r, err := (&Admissible{}).exact(context.Background(), 0); err != nil || r != 0 {
		t.Fatalf("empty: %v, %v", r, err)
	}
}

// Blocks without images cover no database, as brute force agrees.
func TestDecomposedEmpty(t *testing.T) {
	pair := &Admissible{BlockSizes: []int32{2, 3}}
	r, err := pair.Exact(context.Background())
	if err != nil || r != 0 {
		t.Fatalf("blocks without images: %v, %v", r, err)
	}
	if bf, err := pair.BruteForceRatio(0); err != nil || bf != r {
		t.Fatalf("brute force %v, %v; exact %v", bf, err, r)
	}
}

func TestCompiledCertainTuple(t *testing.T) {
	// Both members of the only block are covered: frequency 1.
	pair := mustPair(t, &Admissible{
		BlockSizes: []int32{2},
		Images: []Image{
			{{Block: 0, Fact: 0}},
			{{Block: 0, Fact: 1}},
		},
	})
	if r := exactOf(t, pair); math.Abs(r-1) > 1e-12 {
		t.Fatalf("certain pair: %v", r)
	}
}

// An image made only of members of size-1 blocks is in every repair.
func TestExactSizeOneBlocks(t *testing.T) {
	pair := &Admissible{BlockSizes: []int32{1, 1, 2}}
	for i := 0; i < 40; i++ {
		pair.BlockSizes = append(pair.BlockSizes, 3)
		pair.Images = append(pair.Images, Image{{Block: 2, Fact: 0}, {Block: int32(3 + i), Fact: 1}})
	}
	pair.Images = append(pair.Images, Image{{Block: 0, Fact: 0}, {Block: 1, Fact: 0}})
	mustPair(t, pair)
	if r := exactOf(t, pair); r != 1 {
		t.Fatalf("R = %v, want 1", r)
	}
	// Dropping the size-1 member leaves both members of block 1 covered.
	pair = mustPair(t, &Admissible{
		BlockSizes: []int32{1, 2},
		Images:     []Image{{{Block: 0, Fact: 0}, {Block: 1, Fact: 1}}, {{Block: 1, Fact: 0}}},
	})
	if r := exactOf(t, pair); r != 1 {
		t.Fatalf("R = %v, want 1 (both members of block 1 are covered)", r)
	}
}

// Property: brute force, inclusion–exclusion and Exact agree on random
// pairs.
func TestThreeExactAlgorithmsAgreeProperty(t *testing.T) {
	f := func(seed []byte) bool {
		pair := randomPair(seed)
		if pair == nil {
			return true
		}
		bf, err1 := pair.BruteForceRatio(0)
		ie, err2 := pair.ExactRatio(0)
		ex, err3 := pair.Exact(context.Background())
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return math.Abs(bf-ie) < 1e-9 && math.Abs(bf-ex) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: on the disjoint union of two random pairs, which shares no
// block and so splits into their components, Exact agrees with brute
// force on the union and with 1 − (1 − R1)(1 − R2) from the two halves.
func TestDecomposedProperty(t *testing.T) {
	f := func(seed1, seed2 []byte) bool {
		p1, p2 := randomPair(seed1), randomPair(seed2)
		if p1 == nil || p2 == nil {
			return true
		}
		union := &Admissible{BlockSizes: slices.Concat(p1.BlockSizes, p2.BlockSizes)}
		union.Images = slices.Clone(p1.Images)
		shift := int32(len(p1.BlockSizes))
		for _, img := range p2.Images {
			shifted := make(Image, len(img))
			for k, m := range img {
				shifted[k] = Member{Block: m.Block + shift, Fact: m.Fact}
			}
			union.Images = append(union.Images, shifted)
		}
		union.Canonicalize()
		if union.Validate() != nil {
			return false
		}
		r1, err1 := p1.BruteForceRatio(0)
		r2, err2 := p2.BruteForceRatio(0)
		bf, err3 := union.BruteForceRatio(0)
		ex, err4 := union.Exact(context.Background())
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return math.Abs(bf-ex) < 1e-9 && math.Abs(1-(1-r1)*(1-r2)-ex) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// randomWidePair draws a pair of 12–23 images of two or three members
// over five or six blocks of sizes 2–4, so one component holds more
// images than inclusion–exclusion takes and brute force stays cheap.
func randomWidePair(rng *rand.Rand) *Admissible {
	pair := &Admissible{}
	nb := 5 + rng.Intn(2)
	for b := 0; b < nb; b++ {
		pair.BlockSizes = append(pair.BlockSizes, int32(2+rng.Intn(3)))
	}
	for n := 12 + rng.Intn(12); n > 0; n-- {
		var img Image
		for _, b := range rng.Perm(nb)[:2+rng.Intn(2)] {
			img = append(img, Member{Block: int32(b), Fact: rng.Int31n(pair.BlockSizes[b])})
		}
		pair.Images = append(pair.Images, img)
	}
	pair.Canonicalize()
	dropUntouchedBlocks(pair)
	return pair
}

// Property: on pairs whose components exceed the inclusion–exclusion
// cutoff, the compiled count agrees with brute force; a bound of zero
// nodes shows that most of them are compiled.
func TestExactCompiledProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const pairs = 1000
	compiled := 0
	for i := 0; i < pairs; i++ {
		pair := randomWidePair(rng)
		if err := pair.Validate(); err != nil {
			t.Fatal(err)
		}
		bf, err := pair.BruteForceRatio(0)
		if err != nil {
			t.Fatal(err)
		}
		if got := exactOf(t, pair); math.Abs(got-bf) > 1e-12 {
			t.Fatalf("pair %d %+v: exact %v, brute force %v", i, pair, got, bf)
		}
		if _, err := pair.exact(context.Background(), 0); errors.Is(err, ErrTooLarge) {
			compiled++
		}
	}
	t.Logf("%d of %d pairs reached a compilation node", compiled, pairs)
	if compiled < pairs/2 {
		t.Fatalf("only %d of %d pairs reached a compilation node", compiled, pairs)
	}
}

// A done context fails before any work, even on the pairs that need no
// compilation.
func TestExactDoneContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	one := mustPair(t, &Admissible{BlockSizes: []int32{2}, Images: []Image{{{Block: 0, Fact: 0}}}})
	for _, pair := range []*Admissible{{}, one, chainPair(60)} {
		_, err := pair.Exact(ctx)
		if !errors.Is(err, cqaerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
		}
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := one.Exact(expired); !errors.Is(err, cqaerr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
}

func TestComponentsDisjointImages(t *testing.T) {
	// Three components: {0}, {1, 3} sharing block 2, and {2}.
	pair := mustPair(t, &Admissible{
		BlockSizes: []int32{2, 2, 2, 2},
		Images: []Image{
			{{Block: 0, Fact: 0}},
			{{Block: 1, Fact: 0}, {Block: 2, Fact: 1}},
			{{Block: 3, Fact: 0}},
			{{Block: 2, Fact: 0}},
		},
	})
	// Miss probabilities 1/2, 1 − (1/4 + 1/2) = 1/4 and 1/2.
	if got, want := exactOf(t, pair), 1-0.5*0.25*0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("R = %v, want %v", got, want)
	}
	if bf, _ := pair.BruteForceRatio(0); math.Abs(bf-exactOf(t, pair)) > 1e-12 {
		t.Fatalf("brute force %v", bf)
	}
}

func TestComponentsSingle(t *testing.T) {
	pair := mustPair(t, &Admissible{
		BlockSizes: []int32{2, 2},
		Images: []Image{
			{{Block: 0, Fact: 0}, {Block: 1, Fact: 0}},
			{{Block: 0, Fact: 1}},
		},
	})
	// One component: 1/4 + 1/2.
	if got := exactOf(t, pair); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("R = %v, want 0.75", got)
	}
}

func TestDecomposedMatchesDirect(t *testing.T) {
	pair := mustPair(t, &Admissible{
		BlockSizes: []int32{2, 3, 2, 4, 2},
		Images: []Image{
			{{Block: 0, Fact: 0}},
			{{Block: 1, Fact: 1}, {Block: 2, Fact: 0}},
			{{Block: 3, Fact: 2}},
			{{Block: 4, Fact: 1}},
			{{Block: 1, Fact: 0}},
		},
	})
	direct, err := pair.ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := exactOf(t, pair); math.Abs(direct-got) > 1e-12 {
		t.Fatalf("inclusion-exclusion %v vs exact %v", direct, got)
	}
}

// Many independent single-image components exceed the flat inclusion–
// exclusion limit but stay exact once split.
func TestDecomposedScalesBeyondFlatLimit(t *testing.T) {
	pair := &Admissible{}
	for i := 0; i < 40; i++ {
		pair.BlockSizes = append(pair.BlockSizes, 2)
		pair.Images = append(pair.Images, Image{{Block: int32(i), Fact: 0}})
	}
	mustPair(t, pair)
	if _, err := pair.ExactRatio(22); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("flat inclusion-exclusion unexpectedly handled 40 images: %v", err)
	}
	if got, want := exactOf(t, pair), 1-math.Pow(0.5, 40); math.Abs(got-want) > 1e-12 {
		t.Fatalf("exact = %v, want %v", got, want)
	}
}

// One star of 30 images around block 0: no split helps, so the star is
// compiled, and branching on block 0 leaves independent images.
func TestDecomposedLargeComponentStillFails(t *testing.T) {
	pair := &Admissible{BlockSizes: []int32{2}}
	for i := 0; i < 30; i++ {
		pair.BlockSizes = append(pair.BlockSizes, 2)
		pair.Images = append(pair.Images, Image{{Block: 0, Fact: 0}, {Block: int32(i + 1), Fact: 0}})
	}
	mustPair(t, pair)
	if _, err := pair.ExactRatio(22); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if got, want := exactOf(t, pair), 0.5*(1-math.Pow(0.5, 30)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("exact = %v, want %v", got, want)
	}
}

func TestAutoCombinesAlgorithms(t *testing.T) {
	// Two components: a small dense one (inclusion–exclusion) and a long
	// chain (compilation).
	pair := &Admissible{}
	for b := 0; b < 3; b++ {
		pair.BlockSizes = append(pair.BlockSizes, 2)
	}
	pair.Images = append(pair.Images,
		Image{{Block: 0, Fact: 0}, {Block: 1, Fact: 0}},
		Image{{Block: 1, Fact: 1}, {Block: 2, Fact: 0}},
	)
	chain := chainPair(40)
	for _, img := range chain.Images {
		shifted := make(Image, len(img))
		for k, m := range img {
			shifted[k] = Member{Block: m.Block + 3, Fact: m.Fact}
		}
		pair.Images = append(pair.Images, shifted)
	}
	pair.BlockSizes = append(pair.BlockSizes, chain.BlockSizes...)
	mustPair(t, pair)
	small, err := (&Admissible{BlockSizes: pair.BlockSizes[:3], Images: pair.Images[:2]}).ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (1-small)*(1-exactOf(t, chain))
	if got := exactOf(t, pair); math.Abs(got-want) > 1e-12 {
		t.Fatalf("exact %v, want %v from the components", got, want)
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

func BenchmarkExact(b *testing.B) {
	pair := benchLikePair()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pair.Exact(context.Background()); err != nil {
			b.Fatal(err)
		}
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
