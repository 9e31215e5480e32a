package mt

// Compiled bounded draws. The samplers call Intn with the same bounds
// millions of times per estimate: once per block of the pair per draw,
// and once per alias-table draw. Bound and Fill compute everything that
// depends only on the bound once, and read the state array directly, so
// a draw makes no call per word. Both read exactly the words Intn would
// read and return exactly its values; only the speed differs. Advance
// and Match read Fill's words for draws whose values are not stored.

// Bound is Intn(n) compiled for one n ≥ 1.
type Bound struct {
	n uint64
	// max is Intn's rejection threshold (^uint64(0)/n)*n: words at or
	// above it are redrawn. It is 0 for a power of two, which masks
	// the word instead and never rejects.
	max uint64
}

// NewBound compiles Intn(n). It panics if n <= 0, as Intn does.
func NewBound(n int) Bound {
	if n <= 0 {
		panic("mt: NewBound with non-positive n")
	}
	un := uint64(n)
	if un&(un-1) == 0 {
		return Bound{n: un}
	}
	return Bound{n: un, max: (^uint64(0) / un) * un}
}

// Draw returns src.Intn(n) for the bound's n, reading the same words.
func (b *Bound) Draw(src *Source) int {
	i := src.index
	for {
		if i >= nn {
			src.refill()
			i = 0
		}
		v := temper(src.state[i])
		i++
		if b.max == 0 {
			src.index = i
			return int(v & (b.n - 1))
		}
		if v < b.max {
			src.index = i
			return int(v % b.n)
		}
	}
}

// Fill is the loop
//
//	for b := range sizes { dst[b] = int32(src.Intn(int(sizes[b]))) }
//
// compiled for fixed sizes. Intn(1) is always 0 but still consumes one
// word, so a run of size-1 bounds only advances the stream by its
// length, without tempering any word.
type Fill struct {
	steps []fillStep
	tail  int // size-1 bounds after the last step
}

// fillStep is one bound larger than 1, preceded by skip size-1 bounds.
type fillStep struct {
	Bound
	skip int32
	dst  int32 // index into dst
}

// NewFill compiles the fill loop for sizes, which must all be ≥ 1.
func NewFill(sizes []int32) Fill {
	n := 0
	for _, sz := range sizes {
		if sz > 1 {
			n++
		}
	}
	f := Fill{steps: make([]fillStep, 0, n)}
	for b, sz := range sizes {
		if sz == 1 {
			f.tail++
			continue
		}
		f.steps = append(f.steps, fillStep{Bound: NewBound(int(sz)), skip: int32(f.tail), dst: int32(b)})
		f.tail = 0
	}
	return f
}

// Fill runs the compiled loop f, drawing into dst. Entries of dst at
// size-1 bounds are left as they are: Intn(1) is always 0, so callers
// keep 0 there. The inner loop is Bound.Draw's, written out by hand:
// calling it per block made the fill about 10% slower.
func (s *Source) Fill(f *Fill, dst []int32) {
	i, steps := s.index, f.steps
	for k := range steps {
		st := &steps[k]
		i = s.skip(i, int(st.skip))
		for {
			if i >= nn {
				s.refill()
				i = 0
			}
			v := temper(s.state[i])
			i++
			if st.max == 0 {
				dst[st.dst] = int32(v & (st.n - 1))
				break
			}
			if v < st.max {
				dst[st.dst] = int32(v % st.n)
				break
			}
		}
	}
	s.index = s.skip(i, f.tail)
}

// Advance consumes the words one run of f reads, rejections included,
// storing no value. Only the words a bound can reject are tempered.
func (s *Source) Advance(f *Fill) {
	i, steps := s.index, f.steps
	for k := range steps {
		st := &steps[k]
		if st.max == 0 {
			i = s.skip(i, int(st.skip)+1)
			continue
		}
		i = s.skip(i, int(st.skip))
		for {
			if i >= nn {
				s.refill()
				i = 0
			}
			v := temper(s.state[i])
			i++
			if v < st.max {
				break
			}
		}
	}
	s.index = s.skip(i, f.tail)
}

// Match runs f len(dst) times, reading the words Fill would, and sets
// dst[d] to 1 if draw d drew want[b] in every block b of size above 1,
// else to 0. A draw ORs each block's difference into one word instead
// of branching on each compare.
func (s *Source) Match(f *Fill, want []int32, dst []float64) {
	i, steps := s.index, f.steps
	for d := range dst {
		var miss uint64
		for k := range steps {
			st := &steps[k]
			i = s.skip(i, int(st.skip))
			for {
				if i >= nn {
					s.refill()
					i = 0
				}
				v := temper(s.state[i])
				i++
				if st.max == 0 {
					miss |= v&(st.n-1) ^ uint64(want[st.dst])
					break
				}
				if v < st.max {
					miss |= v%st.n ^ uint64(want[st.dst])
					break
				}
			}
		}
		i = s.skip(i, f.tail)
		dst[d] = 0
		if miss == 0 {
			dst[d] = 1
		}
	}
	s.index = i
}

// skip consumes k words from state position i and returns the new
// position. Like Uint64, it refills the state only when a word past
// its end is consumed.
func (s *Source) skip(i, k int) int {
	for i+k > nn {
		k -= nn - i
		s.refill()
		i = 0
	}
	return i + k
}
