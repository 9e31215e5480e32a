package mt

// Substream derivation for deterministic intra-query parallel sampling.
//
// The parallel estimation path splits one logical draw stream into
// fixed-size chunks and hands each chunk to whichever worker is free.
// Every chunk draws from its own Source, derived purely from the pair
// (root seed, chunk index) via SeedBySlice (init_by_array64): the
// derived state depends on nothing but those two words, so chunk k sees
// the same randomness whether it is computed by worker 0 or worker 7,
// eagerly or late — the whole schedule is a pure function of the root
// seed. MT19937-64's init_by_array64 is the generator's own
// multi-word seeding procedure, designed so that nearby keys yield
// uncorrelated states; it is the standard way to key independent
// substreams without jump-ahead polynomial arithmetic.
//
// The derivation is part of the repository's determinism contract
// (docs/ARCHITECTURE.md): TestSubstreamGolden pins the derived states
// and first outputs, so the scheme can never drift silently.

// Substream reseeds s to the substream identified by (rootSeed, chunk):
// SeedBySlice over the two-word key {rootSeed, chunk}. It reuses s's
// state array, so per-chunk reseeding in a worker loop allocates
// nothing.
func (s *Source) Substream(rootSeed, chunk uint64) {
	s.SeedBySlice([]uint64{rootSeed, chunk})
}
