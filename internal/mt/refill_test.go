package mt

import (
	"fmt"
	"testing"
)

// checkRefills refills copies of st with the AVX2 routine (and its Go
// tail) and with the scalar loop, rounds times, and fails on the first
// word where they differ.
func checkRefills(t *testing.T, name string, st [nn]uint64, rounds int) {
	t.Helper()
	vec, scalar := st, st
	for r := 0; r < rounds; r++ {
		refillState(&vec, true)
		refillState(&scalar, false)
		for i := range vec {
			if vec[i] != scalar[i] {
				t.Fatalf("%s, refill %d: word %d is %#016x by AVX2, %#016x by the scalar loop",
					name, r+1, i, vec[i], scalar[i])
			}
		}
	}
}

func TestRefillAVX2MatchesScalar(t *testing.T) {
	if !hasAVX2() {
		t.Skip("the CPU or OS has no AVX2: refill runs the scalar loop only")
	}
	if !useAVX2 {
		t.Fatal("hasAVX2 is true but useAVX2 is not set")
	}
	for seed := uint64(0); seed < 1000; seed++ {
		checkRefills(t, fmt.Sprintf("New(%d)", seed), New(seed).state, 5)
	}
	for _, root := range []uint64{0, 1, DefaultSeed, ^uint64(0)} {
		for chunk := uint64(0); chunk < 16; chunk++ {
			checkRefills(t, fmt.Sprintf("Substream(%d, %d)", root, chunk), substream(root, chunk).state, 5)
		}
	}
	var s Source
	s.SeedBySlice([]uint64{0x12345, 0x23456, 0x34567, 0x45678})
	checkRefills(t, "SeedBySlice", s.state, 5)

	// Planted words at both ends of each loop and of the Go tail: the
	// lanes that read a neighbour or a word 156 away across a boundary.
	var at []int
	for _, r := range [][2]int{{0, 4}, {152, 159}, {304, 311}} {
		for p := r[0]; p <= r[1]; p++ {
			at = append(at, p)
		}
	}
	base := New(DefaultSeed).state
	for _, p := range at {
		for _, w := range []uint64{0, ^uint64(0), upperMask, lowerMask, base[p] ^ 1} {
			st := base
			st[p] = w
			checkRefills(t, fmt.Sprintf("word %d set to %#x", p, w), st, 2)
		}
	}
	// Every word of the state set to one of the planted values at once.
	for _, w := range []uint64{0, ^uint64(0), upperMask, lowerMask} {
		var st [nn]uint64
		for i := range st {
			st[i] = w
		}
		checkRefills(t, fmt.Sprintf("every word %#x", w), st, 2)
	}
}

func BenchmarkRefill(b *testing.B) {
	st := New(DefaultSeed).state
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refillState(&st, false)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nn), "ns/word")
	})
	b.Run("AVX2", func(b *testing.B) {
		if !hasAVX2() {
			b.Skip("no AVX2")
		}
		for i := 0; i < b.N; i++ {
			refillState(&st, true)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nn), "ns/word")
	})
}
