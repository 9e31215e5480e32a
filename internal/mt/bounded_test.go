package mt

import (
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

// checkFill runs the compiled fill and the Intn loop side by side from
// every offset into the state array, so the refill boundary falls at
// every position of the plan, and compares values and stream positions.
func checkFill(t *testing.T, sizes []int32) {
	t.Helper()
	f := NewFill(sizes)
	for offset := 0; offset < nn; offset += 1 + offset/8 {
		want, got := New(5), New(5)
		for i := 0; i < offset; i++ {
			want.Uint64()
			got.Uint64()
		}
		wd, gd := make([]int32, len(sizes)), make([]int32, len(sizes))
		for round := 0; round < 3; round++ {
			intnFill(want, sizes, wd)
			got.Fill(&f, gd)
			for b := range wd {
				if wd[b] != gd[b] {
					t.Fatalf("offset %d round %d block %d (size %d): Intn %d, Fill %d", offset, round, b, sizes[b], wd[b], gd[b])
				}
			}
		}
		sameStream(t, want, got)
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
