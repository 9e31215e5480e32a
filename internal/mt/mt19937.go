// Package mt implements the MT19937-64 Mersenne Twister pseudo-random
// number generator of Matsumoto and Nishimura, the generator the paper's
// reference implementation uses for all random choices [23].
//
// The type satisfies math/rand.Source and math/rand.Source64, so it can be
// wrapped in a *rand.Rand, but the package also provides the small set of
// uniform helpers the samplers need directly (bounded integers and floats)
// so hot sampling loops avoid interface dispatch.
package mt

const (
	nn        = 312
	mm        = 156
	matrixA   = 0xB5026F5AA96619E9
	upperMask = 0xFFFFFFFF80000000
	lowerMask = 0x7FFFFFFF

	// DefaultSeed is the reference seed from the original mt19937-64.c.
	DefaultSeed = 5489
)

// Source is an MT19937-64 generator. It is not safe for concurrent use;
// create one Source per goroutine (the harness does exactly that).
type Source struct {
	state [nn]uint64
	index int
}

// New returns a Source seeded with seed, mirroring init_genrand64 from the
// reference implementation.
func New(seed uint64) *Source {
	s := &Source{}
	s.Seed(int64(seed))
	return s
}

// Seed resets the generator state from a single 64-bit seed.
// It implements the math/rand.Source interface.
func (s *Source) Seed(seed int64) {
	s.state[0] = uint64(seed)
	for i := 1; i < nn; i++ {
		s.state[i] = 6364136223846793005*(s.state[i-1]^(s.state[i-1]>>62)) + uint64(i)
	}
	s.index = nn
}

// arraySeed is the state Seed(19650218) leaves, which init_by_array64
// starts every key from.
var arraySeed = func() [nn]uint64 {
	var s Source
	s.Seed(19650218)
	return s.state
}()

// SeedBySlice initializes the state from a key array, mirroring
// init_by_array64. It allows seeding with more than 64 bits of entropy.
func (s *Source) SeedBySlice(key []uint64) {
	s.state = arraySeed
	i, j := 1, 0
	k := len(key)
	if nn > k {
		k = nn
	}
	for ; k > 0; k-- {
		s.state[i] = (s.state[i] ^ ((s.state[i-1] ^ (s.state[i-1] >> 62)) * 3935559000370003845)) + key[j] + uint64(j)
		i++
		j++
		if i >= nn {
			s.state[0] = s.state[nn-1]
			i = 1
		}
		if j >= len(key) {
			j = 0
		}
	}
	for k = nn - 1; k > 0; k-- {
		s.state[i] = (s.state[i] ^ ((s.state[i-1] ^ (s.state[i-1] >> 62)) * 2862933555777941757)) - uint64(i)
		i++
		if i >= nn {
			s.state[0] = s.state[nn-1]
			i = 1
		}
	}
	s.state[0] = 1 << 63
	s.index = nn
}

// kernel is a level of the stream kernels: the scalar loops, or the
// AVX2 or AVX-512 refill and match. Every level gives the same words,
// values and stream; only the speed differs.
type kernel uint8

const (
	scalar kernel = iota
	avx2
	avx512
)

func (k kernel) String() string {
	return [...]string{scalar: "scalar", avx2: "avx2", avx512: "avx512"}[k]
}

// useKernel is the highest level the CPU and the OS support, decided
// once.
var useKernel = func() kernel {
	switch {
	case hasAVX512():
		return avx512
	case hasAVX2():
		return avx2
	}
	return scalar
}()

// Kernel names the stream kernels this process runs: "scalar", "avx2"
// or "avx512". Every one gives the same stream.
func Kernel() string { return useKernel.String() }

func (s *Source) refill() {
	refillState(&s.state, useKernel)
	s.index = 0
}

// refillState computes the next nn state words in place. At a vector
// level the kernel computes words 0 to nn-5 and the scalar loop only
// the rest; every level gives the same words.
func refillState(st *[nn]uint64, k kernel) {
	i := 0
	switch k {
	case avx512:
		refillAVX512(st)
		i = nn - 4
	case avx2:
		refillAVX2(st)
		i = nn - 4
	}
	for ; i < nn-mm; i++ {
		st[i] = twist(st[i], st[i+1], st[i+mm])
	}
	for ; i < nn-1; i++ {
		st[i] = twist(st[i], st[i+1], st[i+mm-nn])
	}
	st[nn-1] = twist(st[nn-1], st[0], st[mm-1])
}

// twist is the recurrence's step: the new value of a word from its old
// value a, its successor b and the word c that lies mm words away.
func twist(a, b, c uint64) uint64 {
	x := (a & upperMask) | (b & lowerMask)
	return c ^ (x >> 1) ^ ((x & 1) * matrixA)
}

// Uint64 returns the next value of the MT19937-64 stream.
// It implements the math/rand.Source64 interface.
func (s *Source) Uint64() uint64 {
	if s.index >= nn {
		s.refill()
	}
	x := s.state[s.index]
	s.index++
	return temper(x)
}

// temper is MT19937-64's output scrambling of one state word.
func temper(x uint64) uint64 {
	x ^= (x >> 29) & 0x5555555555555555
	x ^= (x << 17) & 0x71D67FFFEDA60000
	x ^= (x << 37) & 0xFFF7EEE000000000
	x ^= x >> 43
	return x
}

// Int63 returns a non-negative 63-bit value.
// It implements the math/rand.Source interface.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Bias is removed by rejection sampling, as in math/rand.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("mt: Intn with non-positive n")
	}
	un := uint64(n)
	if un&(un-1) == 0 { // power of two
		return int(s.Uint64() & (un - 1))
	}
	// Reject values in the final partial bucket to avoid modulo bias.
	max := (^uint64(0) / un) * un
	v := s.Uint64()
	for v >= max {
		v = s.Uint64()
	}
	return int(v % un)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision,
// mirroring genrand64_real2 from the reference implementation.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniform random permutation of [0, n) via Fisher-Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
