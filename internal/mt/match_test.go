package mt

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
)

// matchSizes are the size lists TestMatchAVX2MatchesScalar runs: every
// two-block shape of sizes 1–5, which are many-tuples' one-image pairs,
// and lists that mix size 1, powers of two and other sizes up to
// 2³¹−1, one step to eleven.
func matchSizes() [][]int32 {
	var lists [][]int32
	for a := int32(1); a <= 5; a++ {
		for b := int32(1); b <= 5; b++ {
			lists = append(lists, []int32{a, b})
		}
	}
	return append(lists,
		[]int32{3}, []int32{6}, []int32{1 << 30}, []int32{1<<31 - 1},
		[]int32{1, 7, 1, 1, 2},
		[]int32{24, 1000, 1 << 30, 1<<31 - 1},
		[]int32{1, 3, 1, 6, 1000, 7, 1<<31 - 1, 24, 5, 2, 8, 1 << 30, 1},
		wideSizes,
	)
}

// matchLengths are the batch lengths: fewer draws than a group, one
// group and a few more, an estimator chunk, and enough to cross the
// refill several times.
var matchLengths = []int{1, 2, 3, 4, 5, 6, 7, 256, 1000}

// checkMatchPaths runs Match with and without the AVX2 kernel on
// copies of src and fails unless both give the same values and leave
// the same index and state.
func checkMatchPaths(t *testing.T, tag string, src *Source, f *Fill, want []int32, n int) {
	t.Helper()
	vec, scalar := *src, *src
	got, ref := make([]float64, n), make([]float64, n)
	vec.match(f, want, got, true)
	scalar.match(f, want, ref, false)
	for d := range ref {
		if got[d] != ref[d] {
			t.Fatalf("%s: draw %d is %v by AVX2, %v by the scalar path", tag, d, got[d], ref[d])
		}
	}
	if vec.index != scalar.index || vec.state != scalar.state {
		t.Fatalf("%s: AVX2 ends at word %d, the scalar path at %d (or in another state)", tag, vec.index, scalar.index)
	}
}

func TestMatchAVX2MatchesScalar(t *testing.T) {
	if !hasAVX2() {
		t.Skip("the CPU or OS has no AVX2: Match runs the scalar loop only")
	}
	base := New(17)
	base.refill()
	for _, sizes := range matchSizes() {
		f := NewFill(sizes)
		for i := 0; i < nn; i++ {
			src := *base
			src.index = i
			// want is the Intn loop's draw of run 0, 5 or 10 from word
			// i, so lanes 0, 1 and 2 of a group hit at least once.
			drawn, ref := make([][]int32, 11), src
			for r := range drawn {
				drawn[r] = make([]int32, len(sizes))
				intnFill(&ref, sizes, drawn[r])
			}
			for _, r := range []int{0, 5, 10} {
				for _, n := range matchLengths {
					checkMatchPaths(t, fmt.Sprintf("sizes %v from word %d, want run %d, %d draws", sizes, i, r, n), &src, &f, drawn[r], n)
				}
			}
		}
	}
	t.Run("planted", testMatchPlanted)
}

// intnMatch is Match's value for each of n runs of the Intn loop.
func intnMatch(src *Source, sizes, want []int32, n int) []float64 {
	out, drawn := make([]float64, n), make([]int32, len(sizes))
	for d := range out {
		intnFill(src, sizes, drawn)
		if slices.Equal(drawn, want) {
			out[d] = 1
		}
	}
	return out
}

// testMatchPlanted plants single words in a group of a block and checks
// where the kernel stops: at a group with a word the bound rejects (at
// or above max) or, for a size that is not a power of two, a word below
// n, and never at a word inside the window, its two ends included. It
// plants each in the first, a middle and the last group of a block, in
// a lane that moves with the step. Then Match with and without the
// kernel must give the Intn loop's values and stream. A last case
// plants words that draw want in every step of one run, which must hit.
func testMatchPlanted(t *testing.T) {
	sizes := []int32{1, 3, 1, 6, 1000, 7, 1<<31 - 1, 24, 5, 2, 8, 1 << 30, 1}
	f, w := NewFill(sizes), len(sizes)
	base := New(23)
	base.refill()
	for _, start := range []int{0, 7} {
		groups := (nn - start) / (4 * w)
		want := make([]int32, w)
		ref := *base
		ref.index = start
		intnFill(&ref, sizes, want)
		for k, st := range f.steps {
			b, n := int(st.dst), st.n
			// want[b] = n−1 makes 2⁶⁴ mod n below want[b], so the word
			// n−1−(2⁶⁴ mod n) passes the divisibility test wrapped
			// around: the window's low end is what keeps it out.
			want := slices.Clone(want)
			want[b] = int32(n - 1)
			_, r := bits.Div64(1, 0, n)
			type word struct {
				v    uint64
				stop bool
			}
			var words []word
			if st.max == 0 {
				words = []word{{0, false}, {n - 1, false}, {^uint64(0), false}}
			} else {
				words = []word{
					{st.max, true}, {st.max + 1, true}, {^uint64(0), true},
					{0, true}, {n - 1 - r, true}, {n - 1, true},
					{n, false}, {2*n - 1, false}, {st.max - 1, false},
				}
			}
			for _, g := range []int{0, groups / 2, groups - 1} {
				lane := (g + k) % 4
				at := start + 4*w*g + lane*w + b
				for _, p := range words {
					tag := fmt.Sprintf("from word %d, size %d's word %#x at word %d (group %d, lane %d)", start, n, p.v, at, g, lane)
					src := *base
					src.index = start
					src.state[at] = untemper(p.v)
					dst := make([]float64, 4*groups)
					stop := 4 * groups
					if p.stop {
						stop = 4 * g
					}
					if made := matchAVX2(&src.state, start, w, f.steps, want, dst, groups); made != stop {
						t.Fatalf("%s: the kernel makes %d draws, want %d", tag, made, stop)
					}
					for _, draws := range []int{4 * groups, 1000} {
						checkMatchPaths(t, tag, &src, &f, want, draws)
						got, intn := src, src
						hits := make([]float64, draws)
						got.Match(&f, want, hits)
						if exp := intnMatch(&intn, sizes, want, draws); !slices.Equal(hits, exp) ||
							got.index != intn.index || got.state != intn.state {
							t.Fatalf("%s: Match differs from the Intn loop over %d draws", tag, draws)
						}
					}
				}
			}
		}
		// Every step of run 4g+1 reads a word inside its window that
		// draws want, so the run hits.
		for _, g := range []int{0, groups / 2, groups - 1} {
			src := *base
			src.index = start
			for k, st := range f.steps {
				v := st.n + uint64(want[st.dst]) // a decided word: at least n
				if k%2 == 1 && st.max != 0 {
					v = st.max - st.n + uint64(want[st.dst]) // the window's top
				}
				src.state[start+4*w*g+w+int(st.dst)] = untemper(v)
			}
			hits := make([]float64, 4*groups)
			if made := matchAVX2(&src.state, start, w, f.steps, want, hits, groups); made != 4*groups || hits[4*g+1] != 1 {
				t.Fatalf("from word %d, group %d: the kernel makes %d draws and reports %v for the planted hit", start, g, made, hits[4*g+1])
			}
			checkMatchPaths(t, fmt.Sprintf("from word %d, planted hit in group %d", start, g), &src, &f, want, 1000)
		}
	}
}

func BenchmarkMatch(b *testing.B) {
	for _, sizes := range [][]int32{{3, 5}, wideSizes} {
		f := NewFill(sizes)
		want := make([]int32, len(sizes))
		dst := make([]float64, 256)
		for _, avx2 := range []bool{false, true} {
			b.Run(fmt.Sprintf("blocks=%d/avx2=%v", len(sizes), avx2), func(b *testing.B) {
				if avx2 && !hasAVX2() {
					b.Skip("no AVX2")
				}
				s := New(DefaultSeed)
				for i := 0; i < b.N; i++ {
					s.match(&f, want, dst, avx2)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/draw")
			})
		}
	}
}
