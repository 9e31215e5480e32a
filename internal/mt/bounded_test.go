package mt

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// testBounds covers every path of a compiled bound: n = 1 (one word,
// always 0), powers of two (masked), other sizes (rejection), and a
// bound just above 2^62, which rejects about a quarter of all words.
var testBounds = []int{1, 2, 3, 4, 5, 6, 7, 8, 24, 1000, 1 << 20, 1<<31 - 1, 1<<62 + 1}

// sameStream fails the test unless a and b are at the same stream
// position: same internal index and the same next outputs.
func sameStream(t *testing.T, a, b *Source) {
	t.Helper()
	if a.index != b.index {
		t.Fatalf("state index %d vs %d", a.index, b.index)
	}
	for i := 0; i < 4; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("streams diverged: %x vs %x", x, y)
		}
	}
}

func TestBoundMatchesIntn(t *testing.T) {
	for _, n := range testBounds {
		want, got := New(11), New(11)
		b := NewBound(n)
		// 1000 draws cross the 312-word refill boundary several times.
		for i := 0; i < 1000; i++ {
			if x, y := want.Intn(n), b.Draw(got); x != y {
				t.Fatalf("n=%d draw %d: Intn %d, Bound.Draw %d", n, i, x, y)
			}
		}
		sameStream(t, want, got)
	}
}

func TestNewBoundPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBound(0)
}

// intnFill is the loop Fill compiles.
func intnFill(src *Source, sizes []int32, dst []int32) {
	for b, sz := range sizes {
		dst[b] = int32(src.Intn(int(sz)))
	}
}

// checkFill runs the compiled loops and the Intn loop side by side from
// every offset into the state array, so the refill boundary falls at
// every position of the plan.
func checkFill(t *testing.T, sizes []int32) {
	t.Helper()
	for offset := 0; offset < nn; offset += 1 + offset/8 {
		src := New(5)
		for i := 0; i < offset; i++ {
			src.Uint64()
		}
		checkLoops(t, src, sizes, 3)
	}
}

// checkLoops makes rounds draws of sizes from copies of src through the
// Intn loop, Fill and Match, and checks Advance (checkAdvance). Fill
// must draw the Intn loop's values; Match, given the last draw's
// values, must report the draws that drew them and miss the last draw
// once any one block's value differs; both must leave the stream where
// the Intn loop does.
func checkLoops(t *testing.T, src *Source, sizes []int32, rounds int) {
	t.Helper()
	checkAdvance(t, src, sizes)
	f := NewFill(sizes)
	want, fill := *src, *src
	drawn := make([][]int32, rounds)
	got := make([]int32, len(sizes))
	for r := range drawn {
		drawn[r] = make([]int32, len(sizes))
		intnFill(&want, sizes, drawn[r])
		fill.Fill(&f, got)
		for b := range got {
			if got[b] != drawn[r][b] {
				t.Fatalf("round %d block %d (size %d): Intn %d, Fill %d", r, b, sizes[b], drawn[r][b], got[b])
			}
		}
	}
	last := drawn[rounds-1]
	match, hits := *src, make([]float64, rounds)
	match.Match(&f, last, hits)
	for r, hit := range hits {
		if (hit == 1) != slices.Equal(drawn[r], last) || (hit != 0 && hit != 1) {
			t.Fatalf("round %d: Match reports %v for draw %v against %v", r, hit, drawn[r], last)
		}
	}
	for b, sz := range sizes {
		if sz == 1 {
			continue
		}
		other, miss := *src, slices.Clone(last)
		miss[b] = (miss[b] + 1) % sz
		other.Match(&f, miss, hits)
		if hits[rounds-1] != 0 {
			t.Fatalf("Match reports the last draw with block %d (size %d) changed", b, sz)
		}
	}
	for name, got := range map[string]*Source{"Fill": &fill, "Match": &match} {
		if got.index != want.index || got.state != want.state {
			t.Fatalf("%s ends at word %d, the Intn loop at %d (or in another state)", name, got.index, want.index)
		}
	}
}

// advancePre are the unread words before each run that the samplers
// pass to Advance: none, a one-entry alias table's two, and a coverage
// step's three.
var advancePre = []int{0, 2, 3}

// checkAdvance checks Advance(f, pre, n) from a copy of src against n
// rounds of pre Uint64 calls and the Intn loop: both must leave the
// stream at the same position and in the same state. 300 runs cross
// the refill several times, each at another position of the run.
func checkAdvance(t *testing.T, src *Source, sizes []int32) {
	t.Helper()
	f, dst := NewFill(sizes), make([]int32, len(sizes))
	for _, pre := range advancePre {
		for _, n := range []int{1, 7, 300} {
			want, adv := *src, *src
			for r := 0; r < n; r++ {
				for k := 0; k < pre; k++ {
					want.Uint64()
				}
				intnFill(&want, sizes, dst)
			}
			adv.Advance(&f, pre, n)
			if adv.index != want.index || adv.state != want.state {
				t.Fatalf("Advance(pre %d, n %d) from word %d ends at word %d, the Intn loop at %d (or in another state)",
					pre, n, src.index, adv.index, want.index)
			}
		}
	}
}

func TestFillMatchesIntnLoop(t *testing.T) {
	run := func(n int, size int32) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = size
		}
		return s
	}
	cat := func(parts ...[]int32) []int32 {
		var s []int32
		for _, p := range parts {
			s = append(s, p...)
		}
		return s
	}
	cases := map[string][]int32{
		"empty":           nil,
		"one size-1":      {1},
		"mixed":           {2, 1, 5, 2, 1, 1, 1, 2, 1, 2, 2, 1, 1, 1, 1, 3, 2, 1, 1, 4, 3, 3, 1, 1, 5, 3, 24},
		"leading ones":    cat(run(5, 1), []int32{3}),
		"trailing ones":   cat([]int32{3}, run(5, 1)),
		"only ones":       run(700, 1),
		"ones past state": cat([]int32{5}, run(313, 1), []int32{2}, run(312, 1), []int32{3}, run(311, 1), []int32{4}),
		"rejecting":       {1<<30 + 1, 1, 1<<30 + 3, 7},
	}
	for name, sizes := range cases {
		t.Run(name, func(t *testing.T) { checkFill(t, sizes) })
	}
}

// untemper inverts temper, so that a test can choose the words a
// Source returns by writing its state.
func untemper(y uint64) uint64 {
	y ^= y >> 43
	y ^= (y << 37) & 0xFFF7EEE000000000
	// Each pass settles 17 more low bits of x ^= (x << 17) & mask, and
	// 29 more high bits of x ^= (x >> 29) & mask.
	x := y
	for k := 0; k < 4; k++ {
		x = y ^ (x<<17)&0x71D67FFFEDA60000
	}
	y = x
	for k := 0; k < 3; k++ {
		x = y ^ (x>>29)&0x5555555555555555
	}
	return x
}

func TestUntemper(t *testing.T) {
	src := New(3)
	for i := 0; i < 10000; i++ {
		x := src.Uint64()
		if untemper(temper(x)) != x || temper(untemper(x)) != x {
			t.Fatalf("untemper does not invert temper at %x", x)
		}
	}
}

// A bound of an int32 block size rejects a word with probability below
// 2^-33, so no drawn stream reaches the compiled loops' rejection
// branch. Plant words that every bound rejects (no bound here is a
// power of two) and check the loops against the Intn loop: mid-array,
// on three consecutive words, and at index 311, whose redraw comes
// after a refill; then, for each number of unread words Advance puts
// before a run, as the first, a middle and the last word of a run that
// would otherwise be read at fixed offsets, and in a run that ends at
// index 311.
func TestCompiledLoopsReject(t *testing.T) {
	sizes := []int32{3, 5, 6, 7, 24, 1000, 1<<30 + 1, 1<<31 - 1}
	width := len(sizes)
	t.Run("spread", func(t *testing.T) {
		checkPlanted(t, sizes, 0, []int{150, 200, 201, 202, nn - 1})
	})
	for _, pre := range advancePre {
		w := pre + width
		for _, c := range []struct {
			name         string
			start, plant int
		}{
			{"first", 40, 40 + 5*w + pre},
			{"middle", 40, 40 + 5*w + pre + width/2},
			{"last", 40, 40 + 5*w + pre + width - 1},
			{"ending at 311", nn - 3*w, nn - w + pre + width/2},
		} {
			t.Run(fmt.Sprintf("pre %d/%s", pre, c.name), func(t *testing.T) {
				checkPlanted(t, sizes, c.start, []int{c.plant})
			})
		}
	}
}

// checkPlanted plants a word that every bound of sizes rejects at each
// planted index of a freshly refilled state, starts reading at word
// start, and checks the compiled loops against the Intn loop. It also
// checks that the Intn loop read and rejected every planted word: it
// ends as many words further on than on the state without them.
func checkPlanted(t *testing.T, sizes []int32, start int, planted []int) {
	t.Helper()
	const rounds = 50 // 400 words, and one more per planted word
	src, plain := New(9), New(9)
	src.refill()
	plain.refill()
	src.index, plain.index = start, start
	for _, i := range planted {
		src.state[i] = untemper(^uint64(0)) // at or above every threshold
	}
	checkLoops(t, src, sizes, rounds)
	dst := make([]int32, len(sizes))
	for r := 0; r < rounds; r++ {
		intnFill(src, sizes, dst)
		intnFill(plain, sizes, dst)
	}
	if src.index-plain.index != len(planted) {
		t.Fatalf("planted words rejected: %d, want %d", src.index-plain.index, len(planted))
	}
}

// TestBoundRemainder checks the reciprocal remainder against % for
// every bound that is not a power of two up to 4096 and for bounds
// near 2^31, on the edge words of each bound and random words.
func TestBoundRemainder(t *testing.T) {
	var ns []int
	for n := 3; n <= 4096; n++ {
		if n&(n-1) != 0 {
			ns = append(ns, n)
		}
	}
	for n := 1<<31 - 8; n <= 1<<31+8; n++ {
		if n != 1<<31 {
			ns = append(ns, n)
		}
	}
	src := New(13)
	for _, n := range ns {
		b := NewBound(n)
		un := uint64(n)
		words := []uint64{0, un - 1, un, b.max - un, b.max - 1, b.max, 1 << 63, ^uint64(0)}
		for i := 0; i < 10000; i++ {
			words = append(words, src.Uint64())
		}
		for _, v := range words {
			if got := b.rem(v); got != v%un {
				t.Fatalf("n=%d: rem(%d) = %d, want %d", n, v, got, v%un)
			}
		}
	}
}

// Property: random size lists drawn from {1, 2, 3, 4, 5, 24}.
func TestFillMatchesIntnLoopProperty(t *testing.T) {
	choices := []int32{1, 2, 3, 4, 5, 24}
	f := func(seed []byte) bool {
		sizes := make([]int32, len(seed))
		for i, c := range seed {
			sizes[i] = choices[int(c)%len(choices)]
		}
		checkFill(t, sizes)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// wideSizes are the block sizes of a 45-block Boolean synopsis: 26 of
// size 1, 8 of size 2, 5 of size 3, 2 of size 4 and 4 of size 5.
var wideSizes = []int32{
	2, 1, 5, 2, 1, 1, 1, 2, 1, 2, 2, 1, 1, 1, 1, 3, 2, 1, 1, 4, 3, 3, 1,
	1, 5, 3, 1, 1, 4, 1, 5, 1, 2, 1, 1, 3, 1, 5, 1, 1, 1, 1, 1, 1, 2,
}

func BenchmarkFill(b *testing.B) {
	b.Run("Intn", func(b *testing.B) {
		s, dst := New(DefaultSeed), make([]int32, len(wideSizes))
		for i := 0; i < b.N; i++ {
			intnFill(s, wideSizes, dst)
		}
	})
	b.Run("Fill", func(b *testing.B) {
		s, dst, f := New(DefaultSeed), make([]int32, len(wideSizes)), NewFill(wideSizes)
		for i := 0; i < b.N; i++ {
			s.Fill(&f, dst)
		}
	})
	// As many size-1 blocks: only the words themselves, none tempered.
	b.Run("Fill/size1", func(b *testing.B) {
		ones := make([]int32, len(wideSizes))
		for i := range ones {
			ones[i] = 1
		}
		s, dst, f := New(DefaultSeed), make([]int32, len(ones)), NewFill(ones)
		for i := 0; i < b.N; i++ {
			s.Fill(&f, dst)
		}
	})
}
