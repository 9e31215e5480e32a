package mt

import "testing"

// substream returns a fresh Source at the start of the (root, chunk)
// substream: New followed by Substream.
func substream(root, chunk uint64) *Source {
	s := New(0)
	s.Substream(root, chunk)
	return s
}

// TestSubstreamGolden pins the substream derivation: the first outputs
// of substream(root, chunk) for a spread of keys. These values were
// recorded from the initial implementation (SeedBySlice over the
// two-word key {root, chunk}, i.e. init_by_array64); any change here is
// a determinism break in the parallel sampling path, because committed
// parallel-path golden estimates (internal/cqa/testdata) and every
// recorded parallel result depend on these states.
func TestSubstreamGolden(t *testing.T) {
	cases := []struct {
		root, chunk uint64
		first       [4]uint64
	}{
		{5489, 0, [4]uint64{0x131ed4d86f7114ad, 0xceb77131126e8afc, 0xb10307e9c1d475ff, 0xbca7fcc712f380be}},
		{5489, 1, [4]uint64{0xff52da6e4bb30097, 0x22cecfbb5a9166c8, 0x24779a6599b93c12, 0xb47a830ac0994e29}},
		{5489, 2, [4]uint64{0xd212154c806a0e28, 0x9b80b4988ae59282, 0x9badb4bdcf4c785c, 0xf09df4abeaaeba6a}},
		{5489, 255, [4]uint64{0x98bd79c50c47a0d9, 0x85125908e45f72f2, 0x9329b6a9a06c4566, 0x823057e95b028f2f}},
		{1, 0, [4]uint64{0x64c07a5ab90c6b37, 0x6ea6d97beff75aec, 0xea0c89e38b1578d0, 0x4b876fd000c94a7e}},
		{1, 1, [4]uint64{0x4e7784f2a4c7d6d6, 0x839fe75ea9100acb, 0x49da321e4f1dcffb, 0x99b4be63544354b1}},
		{0, 0, [4]uint64{0x39e1ce23bd8bd87a, 0x5ab256578b06bbc1, 0x771aad4c1eeb7886, 0x340f159950f668e4}},
		{^uint64(0), 4096, [4]uint64{0xd22c35fc8c5c6601, 0x2ce1b4370516533e, 0x9cf9e46f3f620bf2, 0x7caca74d70a1512d}},
	}
	for _, c := range cases {
		s := substream(c.root, c.chunk)
		for i, want := range c.first {
			if got := s.Uint64(); got != want {
				t.Errorf("substream (%d, %d) output %d: got %#016x want %#016x",
					c.root, c.chunk, i, got, want)
			}
		}
	}
	// A longer-horizon checksum over one full state refill, so drift past
	// the first words is caught too.
	s := substream(5489, 0)
	var x uint64
	for i := 0; i < 312; i++ {
		x ^= s.Uint64()
	}
	if want := uint64(0xc7cd48b6ed1ad87b); x != want {
		t.Errorf("312-output checksum of substream (5489, 0): got %#016x want %#016x", x, want)
	}
}

// TestSubstreamEquivalences pins the definitional properties callers
// rely on: Substream reseeds a used Source in place to exactly a fresh
// Source's substream state, and both match a raw SeedBySlice over
// {root, chunk}.
func TestSubstreamEquivalences(t *testing.T) {
	reseeded := New(12345)
	for i := 0; i < 1000; i++ {
		reseeded.Uint64() // scroll the state so reseeding has to reset it
	}
	reseeded.Substream(99, 7)

	fresh := substream(99, 7)

	raw := &Source{}
	raw.SeedBySlice([]uint64{99, 7})

	for i := 0; i < 640; i++ {
		a, b, c := reseeded.Uint64(), fresh.Uint64(), raw.Uint64()
		if a != b || b != c {
			t.Fatalf("output %d diverges: reseeded=%#x fresh=%#x SeedBySlice=%#x", i, a, b, c)
		}
	}
}

// TestSubstreamDistinct is a smoke check that adjacent substream keys
// yield unrelated streams: no collisions among the first outputs of
// many (root, chunk) combinations.
func TestSubstreamDistinct(t *testing.T) {
	seen := make(map[uint64][2]uint64)
	for root := uint64(0); root < 8; root++ {
		for chunk := uint64(0); chunk < 512; chunk++ {
			v := substream(root, chunk).Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("first output collision: (%d,%d) and (%d,%d) both yield %#x",
					root, chunk, prev[0], prev[1], v)
			}
			seen[v] = [2]uint64{root, chunk}
		}
	}
}
