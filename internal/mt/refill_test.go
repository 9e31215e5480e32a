package mt

import (
	"fmt"
	"testing"
)

// needKernel skips t unless the CPU and the OS support level k.
func needKernel(t testing.TB, k kernel) {
	t.Helper()
	switch {
	case k == avx2 && !hasAVX2():
		t.Skip("the CPU or OS has no AVX2: the scalar loops run instead")
	case k == avx512 && !hasAVX512():
		t.Skip("the CPU or OS has no AVX-512 (F, DQ and VL, with the opmask and ZMM registers saved): a lower level runs instead")
	}
}

// vectorKernels are the levels above the scalar loops, lowest first.
var vectorKernels = []kernel{avx2, avx512}

func TestKernelSelection(t *testing.T) {
	want := scalar
	switch {
	case hasAVX512():
		want = avx512
	case hasAVX2():
		want = avx2
	}
	if useKernel != want || Kernel() != want.String() {
		t.Fatalf("the CPU supports %v, but the package selected %v (Kernel() = %q)", want, useKernel, Kernel())
	}
}

// checkRefills refills copies of st with level k's kernel (and its Go
// tail) and with the scalar loop, rounds times, and fails on the first
// word where they differ.
func checkRefills(t *testing.T, k kernel, name string, st [nn]uint64, rounds int) {
	t.Helper()
	vec, ref := st, st
	for r := 0; r < rounds; r++ {
		refillState(&vec, k)
		refillState(&ref, scalar)
		for i := range vec {
			if vec[i] != ref[i] {
				t.Fatalf("%s, refill %d: word %d is %#016x by %v, %#016x by the scalar loop",
					name, r+1, i, vec[i], k, ref[i])
			}
		}
	}
}

// TestRefillAVX2MatchesScalar runs every vector refill the CPU has
// against the scalar loop on the same states.
func TestRefillAVX2MatchesScalar(t *testing.T) {
	for _, k := range vectorKernels {
		t.Run(k.String(), func(t *testing.T) {
			needKernel(t, k)
			testRefill(t, k)
		})
	}
}

func testRefill(t *testing.T, k kernel) {
	for seed := uint64(0); seed < 1000; seed++ {
		checkRefills(t, k, fmt.Sprintf("New(%d)", seed), New(seed).state, 5)
	}
	for _, root := range []uint64{0, 1, DefaultSeed, ^uint64(0)} {
		for chunk := uint64(0); chunk < 16; chunk++ {
			checkRefills(t, k, fmt.Sprintf("Substream(%d, %d)", root, chunk), substream(root, chunk).state, 5)
		}
	}
	var s Source
	s.SeedBySlice([]uint64{0x12345, 0x23456, 0x34567, 0x45678})
	checkRefills(t, k, "SeedBySlice", s.state, 5)

	// Planted words at both ends of each loop and of the Go tail: the
	// lanes that read a neighbour or a word 156 away across a boundary.
	// Words 144–163 hold AVX-512's last eight-word step below 152, its
	// four-word step at 152–155 and its first step above; 296–311 its
	// last step and the tail.
	var at []int
	for _, r := range [][2]int{{0, 4}, {144, 163}, {296, 311}} {
		for p := r[0]; p <= r[1]; p++ {
			at = append(at, p)
		}
	}
	base := New(DefaultSeed).state
	for _, p := range at {
		for _, w := range []uint64{0, ^uint64(0), upperMask, lowerMask, base[p] ^ 1} {
			st := base
			st[p] = w
			checkRefills(t, k, fmt.Sprintf("word %d set to %#x", p, w), st, 2)
		}
	}
	// Every word of the state set to one of the planted values at once.
	for _, w := range []uint64{0, ^uint64(0), upperMask, lowerMask} {
		var st [nn]uint64
		for i := range st {
			st[i] = w
		}
		checkRefills(t, k, fmt.Sprintf("every word %#x", w), st, 2)
	}
}

func BenchmarkRefill(b *testing.B) {
	st := New(DefaultSeed).state
	for _, k := range []kernel{scalar, avx2, avx512} {
		b.Run(k.String(), func(b *testing.B) {
			needKernel(b, k)
			for i := 0; i < b.N; i++ {
				refillState(&st, k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nn), "ns/word")
		})
	}
}
