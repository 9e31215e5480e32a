package mt

import "math/bits"

// Compiled bounded draws. The samplers call Intn with the same bounds
// millions of times per estimate: once per block of the pair per draw,
// and once per alias-table draw. Bound and Fill compute everything that
// depends only on the bound once, and read the state array directly, so
// a draw makes no call per word and no divide. Both read exactly the
// words Intn would read and return exactly its values; only the speed
// differs. Advance and Match read Fill's words for draws whose values
// are not stored.

// Bound is Intn(n) compiled for one n ≥ 1.
type Bound struct {
	n uint64
	// max is Intn's rejection threshold (^uint64(0)/n)*n: words at or
	// above it are redrawn. It is 0 for a power of two, which masks
	// the word instead and never rejects.
	max uint64
	m   uint64 // ⌊(2⁶⁴−1)/n⌋, the reciprocal rem multiplies by

	// Match's AVX2 kernel (match_amd64.s) reads m and these. It decides
	// whether word v draws w < n without computing v's value: v − w is
	// a multiple of n exactly when rotr((v − w)·inv, shr) ≤ m. That is
	// Intn's verdict for every v in the window [n, max), and for every
	// v when n is a power of two. v lies in the window exactly when
	// v + winOff ≤ winMax as signed words.
	inv      uint64 // the inverse of n's odd part mod 2⁶⁴
	shr, shl uint64 // tz(n) and 64 − tz(n)
	winOff   uint64 // 2⁶³ − the window's low end
	winMax   uint64 // (the window's width − 1) ^ 2⁶³
}

// NewBound compiles Intn(n). It panics if n <= 0, as Intn does.
func NewBound(n int) Bound {
	if n <= 0 {
		panic("mt: NewBound with non-positive n")
	}
	un := uint64(n)
	tz := uint64(bits.TrailingZeros64(un))
	odd := un >> tz
	inv := odd // correct to 3 bits; each step doubles that
	for k := 0; k < 5; k++ {
		inv *= 2 - odd*inv
	}
	b := Bound{n: un, m: ^uint64(0) / un, inv: inv, shr: tz, shl: 64 - tz}
	lo, hi := uint64(0), ^uint64(0) // a power of two decides every word
	if un&(un-1) != 0 {
		b.max = b.m * un
		lo, hi = un, b.max-1
	}
	b.winOff, b.winMax = (1<<63)-lo, (hi-lo)^(1<<63)
	return b
}

// rem returns v % n for a bound that is not a power of two. With
// m·n ≤ 2⁶⁴−1 < (m+1)·n, the quotient estimate hi(v·m) is ⌊v/n⌋ or one
// less for every 64-bit v, so one subtraction corrects the remainder.
func (b *Bound) rem(v uint64) uint64 {
	q, _ := bits.Mul64(v, b.m)
	r := v - q*b.n
	if r >= b.n {
		r -= b.n
	}
	return r
}

// reduce returns the value the bound draws from the tempered word v,
// and false if it rejects v.
func (b *Bound) reduce(v uint64) (uint64, bool) {
	if b.max == 0 {
		return v & (b.n - 1), true
	}
	return b.rem(v), v < b.max
}

// Draw returns src.Intn(n) for the bound's n, reading the same words.
func (b *Bound) Draw(src *Source) int {
	i := src.index
	for {
		if i >= nn {
			src.refill()
			i = 0
		}
		v, ok := b.reduce(temper(src.state[i]))
		i++
		if ok {
			src.index = i
			return int(v)
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
//
// A run that no bound rejects reads one word per block, so block b's
// word lies at offset b from the run's first word. When the whole run
// lies inside the current 312-word state block, Fill, Advance and Match
// read it at those fixed offsets. If a bound rejects its word there, or
// the run would cross a refill, they read the run again from its first
// word, word by word as Intn does.
type Fill struct {
	steps []fillStep
	tail  int // size-1 bounds after the last step
	width int // words a run reads when no bound rejects
}

// fillStep is one bound larger than 1, preceded by skip size-1 bounds.
type fillStep struct {
	Bound
	skip int32
	dst  int32 // index into dst, and the word's fixed offset in a run
}

// NewFill compiles the fill loop for sizes, which must all be ≥ 1.
func NewFill(sizes []int32) Fill {
	n := 0
	for _, sz := range sizes {
		if sz > 1 {
			n++
		}
	}
	f := Fill{steps: make([]fillStep, 0, n), width: len(sizes)}
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
// keep 0 there.
func (s *Source) Fill(f *Fill, dst []int32) {
	if s.fillFixed(f, dst) {
		return
	}
	i := s.index
	for k := range f.steps {
		var v uint64
		v, i = s.draw(&f.steps[k], i)
		dst[f.steps[k].dst] = int32(v)
	}
	s.index = s.skip(i, f.tail)
}

// fillFixed is Fill at fixed offsets. It reports false, consuming
// nothing, if the run would cross a refill or a bound rejects its word;
// Fill then draws every entry again.
func (s *Source) fillFixed(f *Fill, dst []int32) bool {
	i := s.index
	if i+f.width > nn {
		return false
	}
	for k := range f.steps {
		st := &f.steps[k]
		v, ok := st.reduce(temper(s.state[i+int(st.dst)]))
		if !ok {
			return false
		}
		dst[st.dst] = int32(v)
	}
	s.index = i + f.width
	return true
}

// Advance consumes n runs, each of pre words that are not read followed
// by one run of f's words, rejections included, storing no value. At
// fixed offsets it tempers only the words a bound can reject.
func (s *Source) Advance(f *Fill, pre, n int) {
	for {
		if n -= s.advanceFixed(f, pre, n); n == 0 {
			return
		}
		i := s.skip(s.index, pre)
		for k := range f.steps {
			_, i = s.draw(&f.steps[k], i)
		}
		s.index = s.skip(i, f.tail)
		n--
	}
}

// advanceFixed is Advance at fixed offsets. It returns how many runs it
// consumed, stopping before the first run that would cross a refill or
// in which a bound rejects its word.
func (s *Source) advanceFixed(f *Fill, pre, n int) int {
	i, w, steps := s.index, pre+f.width, f.steps
	for r := 0; r < n; r++ {
		if i+w > nn {
			s.index = i
			return r
		}
		for k := range steps {
			st := &steps[k]
			if st.max != 0 && temper(s.state[i+pre+int(st.dst)]) >= st.max {
				s.index = i
				return r
			}
		}
		i += w
	}
	s.index = i
	return n
}

// Match runs f len(dst) times, reading the words Fill would, and sets
// dst[d] to 1 if draw d drew want[b] in every block b of size above 1,
// else to 0. Each want[b] must lie in [0, sizes[b]). A draw ORs each
// block's difference into one word instead of branching on each
// compare.
func (s *Source) Match(f *Fill, want []int32, dst []float64) {
	s.match(f, want, dst, useAVX2)
}

// match is Match, with avx2 choosing whether matchFixed starts with
// the AVX2 kernel; both paths give the same values and stream.
func (s *Source) match(f *Fill, want []int32, dst []float64, avx2 bool) {
	for d := 0; ; d++ {
		if d += s.matchFixed(f, want, dst[d:], avx2); d == len(dst) {
			return
		}
		i, miss := s.index, uint64(0)
		for k := range f.steps {
			var v uint64
			v, i = s.draw(&f.steps[k], i)
			miss |= v ^ uint64(want[f.steps[k].dst])
		}
		s.index = s.skip(i, f.tail)
		dst[d] = hit(miss)
	}
}

// matchFixed is Match at fixed offsets. It returns how many draws it
// made, stopping before the first draw that would cross a refill or in
// which a bound rejects its word. With avx2 set, matchAVX2 makes the
// draws it can decide, four at a time, and the loop here the rest.
func (s *Source) matchFixed(f *Fill, want []int32, dst []float64, avx2 bool) int {
	i, w, steps := s.index, f.width, f.steps
	d := 0
	// A batch too short for a group skips the kernel's set-up, the
	// divide included.
	if avx2 && len(steps) > 0 && len(dst) >= 4 {
		if groups := min(len(dst), (nn-i)/w) / 4; groups > 0 {
			_ = want[w-1] // the kernel reads want unchecked
			d = matchAVX2(&s.state, i, w, steps, want, dst, groups)
			i += d * w
		}
	}
	for ; d < len(dst); d++ {
		if i+w > nn {
			s.index = i
			return d
		}
		var miss uint64
		for k := range steps {
			st := &steps[k]
			v, ok := st.reduce(temper(s.state[i+int(st.dst)]))
			if !ok {
				s.index = i
				return d
			}
			miss |= v ^ uint64(want[st.dst])
		}
		dst[d] = hit(miss)
		i += w
	}
	s.index = i
	return len(dst)
}

// hit is Match's value for a draw whose blocks differ from want by
// miss: 1 if miss is 0, else 0, without a branch.
func hit(miss uint64) float64 {
	return float64(int64(1 - (miss|-miss)>>63))
}

// draw reads one step word by word from state position i, as Intn
// does: it skips the step's size-1 bounds, then reads words until the
// bound accepts one. It returns the drawn value and the new position.
func (s *Source) draw(st *fillStep, i int) (uint64, int) {
	i = s.skip(i, int(st.skip))
	for {
		if i >= nn {
			s.refill()
			i = 0
		}
		v, ok := st.reduce(temper(s.state[i]))
		i++
		if ok {
			return v, i
		}
	}
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
