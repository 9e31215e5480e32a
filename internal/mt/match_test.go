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
// 2³¹−1, one step to eleven. Their widths, 1 to 5, 13, 15, 16 and 45
// words, put AVX-512's eight lanes in one window, two, two to a window
// at either end of it, and one to a window.
func matchSizes() [][]int32 {
	var lists [][]int32
	for a := int32(1); a <= 5; a++ {
		for b := int32(1); b <= 5; b++ {
			lists = append(lists, []int32{a, b})
		}
	}
	return append(lists,
		[]int32{3}, []int32{6}, []int32{1 << 30}, []int32{1<<31 - 1},
		[]int32{2, 3, 5}, fourSizes,
		[]int32{1, 7, 1, 1, 2},
		[]int32{24, 1000, 1 << 30, 1<<31 - 1},
		plantedSizes, spread(3, 15, 5), spread(3, 16, 5),
		wideSizes,
	)
}

// spread is a run of w blocks: size a first, size b last, 1 between.
func spread(a int32, w int, b int32) []int32 {
	sizes := make([]int32, w)
	for i := range sizes {
		sizes[i] = 1
	}
	sizes[0], sizes[w-1] = a, b
	return sizes
}

// fourSizes is a one-image pair of a query with three joins: four
// blocks.
var fourSizes = []int32{3, 5, 2, 4}

// plantedSizes are testMatchPlanted's blocks: ten steps in 13 words.
var plantedSizes = []int32{1, 3, 1, 6, 1000, 7, 1<<31 - 1, 24, 5, 2, 8, 1 << 30, 1}

// matchLengths are the batch lengths: fewer draws than a group, one
// group and a few more, an estimator chunk, and enough to cross the
// refill several times.
var matchLengths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 256, 1000}

// lanes is how many runs a group of level k's kernel tests at once.
func lanes(k kernel) int {
	if k == avx512 {
		return 8
	}
	return 4
}

// kernelMatch runs level k's kernel alone from word i, as matchFixed
// would on runs = min(len(dst), (nn−i)/w) draws, and returns how many
// draws it made and how many it was given: AVX2 takes the whole groups
// of four, AVX-512 every run.
func kernelMatch(k kernel, src *Source, i int, f *Fill, want []int32, dst []float64) (made, given int) {
	w, steps := f.width, f.steps
	runs := min(len(dst), (nn-i)/w)
	if k == avx2 {
		return matchAVX2(&src.state, i, w, steps, want, dst, runs/4), runs / 4 * 4
	}
	p := newMatchPlan(w)
	return matchAVX512(&src.state, i, w, steps, want, dst[:runs], &p), runs
}

// checkMatchPaths runs Match with level k's kernel and with the scalar
// loop alone on copies of src and fails unless both give the same
// values and leave the same index and state.
func checkMatchPaths(t *testing.T, k kernel, tag string, src *Source, f *Fill, want []int32, n int) {
	t.Helper()
	vec, ref := *src, *src
	got, exp := make([]float64, n), make([]float64, n)
	vec.match(f, want, got, k)
	ref.match(f, want, exp, scalar)
	for d := range exp {
		if got[d] != exp[d] {
			t.Fatalf("%s: draw %d is %v by %v, %v by the scalar path", tag, d, got[d], k, exp[d])
		}
	}
	if vec.index != ref.index || vec.state != ref.state {
		t.Fatalf("%s: %v ends at word %d, the scalar path at %d (or in another state)", tag, k, vec.index, ref.index)
	}
}

// TestMatchAVX2MatchesScalar runs every vector match the CPU has
// against the scalar loop on the same sources and wanted values.
func TestMatchAVX2MatchesScalar(t *testing.T) {
	for _, k := range vectorKernels {
		t.Run(k.String(), func(t *testing.T) {
			needKernel(t, k)
			testMatch(t, k)
		})
	}
	t.Run("planted", func(t *testing.T) {
		for _, k := range vectorKernels {
			t.Run(k.String(), func(t *testing.T) {
				needKernel(t, k)
				testMatchPlanted(t, k)
			})
		}
	})
}

func testMatch(t *testing.T, k kernel) {
	base := New(17)
	base.refill()
	for _, sizes := range matchSizes() {
		f := NewFill(sizes)
		for i := 0; i < nn; i++ {
			src := *base
			src.index = i
			// want is the Intn loop's draw of run 0, 5, 10 or 15 from
			// word i, so lanes 0–3 of a group of four hit at least
			// once, and lanes 0, 2, 5 and 7 of a group of eight.
			drawn, ref := make([][]int32, 16), src
			for r := range drawn {
				drawn[r] = make([]int32, len(sizes))
				intnFill(&ref, sizes, drawn[r])
			}
			for _, r := range []int{0, 5, 10, 15} {
				for _, n := range matchLengths {
					checkMatchPaths(t, k, fmt.Sprintf("sizes %v from word %d, want run %d, %d draws", sizes, i, r, n), &src, &f, drawn[r], n)
				}
			}
		}
	}
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
// where level k's kernel stops: at a group with a word the bound
// rejects (at or above max) or, for a size that is not a power of two,
// a word below n, and never at a word inside the window, its two ends
// included. It plants each in the first, a middle and the last group
// of a block, in a lane that moves with the step, so that every lane
// of a group and both halves of AVX-512's windows get one. Then Match
// with and without the kernel must give the Intn loop's values and
// stream. A last case plants words that draw want in every step of
// the second and the last run of a group, which must hit.
//
// The 13-word runs start at word 0 (24 runs: three groups of eight,
// the last loaded with masks as its windows pass word 311), 7 (23
// runs) and 13 (23 runs, whose last group of seven ends at word 311).
func testMatchPlanted(t *testing.T, k kernel) {
	f, w, size := NewFill(plantedSizes), len(plantedSizes), lanes(k)
	base := New(23)
	base.refill()
	for _, start := range []int{0, 7, 13} {
		runs := (nn - start) / w
		if k == avx2 {
			runs = runs / 4 * 4
		}
		groups := (runs + size - 1) / size
		// active is how many runs group g holds.
		active := func(g int) int { return min(size, runs-size*g) }
		want := make([]int32, w)
		ref := *base
		ref.index = start
		intnFill(&ref, plantedSizes, want)
		for s, st := range f.steps {
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
				lane := (g + s) % active(g)
				at := start + size*w*g + lane*w + b
				for _, p := range words {
					tag := fmt.Sprintf("%v from word %d, size %d's word %#x at word %d (group %d, lane %d)", k, start, n, p.v, at, g, lane)
					src := *base
					src.index = start
					src.state[at] = untemper(p.v)
					stop := runs
					if p.stop {
						stop = size * g
					}
					// Entries past the draws made, and past the
					// slice, must keep their -1.
					out := make([]float64, runs+8)
					for d := range out {
						out[d] = -1
					}
					made, _ := kernelMatch(k, &src, start, &f, want, out[:runs])
					if made != stop {
						t.Fatalf("%s: the kernel makes %d draws, want %d", tag, made, stop)
					}
					if d := slices.IndexFunc(out[made:], func(v float64) bool { return v != -1 }); d >= 0 {
						t.Fatalf("%s: the kernel makes %d draws but writes entry %d", tag, made, made+d)
					}
					for _, draws := range []int{runs, 1000} {
						checkMatchPaths(t, k, tag, &src, &f, want, draws)
						got, intn := src, src
						hits := make([]float64, draws)
						got.match(&f, want, hits, k)
						if exp := intnMatch(&intn, plantedSizes, want, draws); !slices.Equal(hits, exp) ||
							got.index != intn.index || got.state != intn.state {
							t.Fatalf("%s: Match differs from the Intn loop over %d draws", tag, draws)
						}
					}
				}
			}
		}
		// Every step of the second and the last run of group g reads a
		// word inside its window that draws want, so both runs hit.
		for _, g := range []int{0, groups / 2, groups - 1} {
			src := *base
			src.index = start
			hit := []int{size*g + 1, size*g + active(g) - 1}
			for _, run := range hit {
				for s, st := range f.steps {
					v := st.n + uint64(want[st.dst]) // a decided word: at least n
					if s%2 == 1 && st.max != 0 {
						v = st.max - st.n + uint64(want[st.dst]) // the window's top
					}
					src.state[start+w*run+int(st.dst)] = untemper(v)
				}
			}
			hits := make([]float64, runs)
			if made, _ := kernelMatch(k, &src, start, &f, want, hits); made != runs || hits[hit[0]] != 1 || hits[hit[1]] != 1 {
				t.Fatalf("%v from word %d, group %d: the kernel makes %d draws and reports %v and %v for the planted hits",
					k, start, g, made, hits[hit[0]], hits[hit[1]])
			}
			checkMatchPaths(t, k, fmt.Sprintf("from word %d, planted hits in group %d", start, g), &src, &f, want, 1000)
		}
	}
}

func BenchmarkMatch(b *testing.B) {
	for _, sizes := range [][]int32{{3, 5}, fourSizes, wideSizes} {
		f := NewFill(sizes)
		want := make([]int32, len(sizes))
		dst := make([]float64, 256)
		for _, k := range []kernel{scalar, avx2, avx512} {
			b.Run(fmt.Sprintf("blocks=%d/kernel=%v", len(sizes), k), func(b *testing.B) {
				needKernel(b, k)
				s := New(DefaultSeed)
				for i := 0; i < b.N; i++ {
					s.match(&f, want, dst, k)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/draw")
			})
		}
	}
}
