package mt

// hasAVX2 reports whether the CPU has AVX2 and the operating system
// saves the YMM registers.
func hasAVX2() bool

// hasAVX512 reports whether the CPU has AVX512F, DQ and VL and the
// operating system saves the opmask and ZMM registers.
func hasAVX512() bool

// refillAVX2 rewrites words 0 to nn-5 of s as the scalar recurrence
// does, four words per instruction. The last four words are left to the
// caller: the final one wraps around to the new s[0].
//
//go:noescape
func refillAVX2(s *[nn]uint64)

// refillAVX512 is refillAVX2 eight words per instruction.
//
//go:noescape
func refillAVX512(s *[nn]uint64)

// matchAVX2 is matchFixed's loop for groups groups of four runs of w
// words, the first at word i of state, which must hold them all; steps
// must not be empty and want must be as Match requires. It returns how
// many draws it made, writing their values to dst: four per group
// before the first group in which some step's word lies outside its
// bound's window, where the divisibility test is not exact.
//
//go:noescape
func matchAVX2(state *[nn]uint64, i, w int, steps []fillStep, want []int32, dst []float64, groups int) int

// matchAVX512 is matchAVX2 for len(dst) > 0 runs eight at a time, loading
// each group's words as p, the plan for runs of w words, says. A last
// group of fewer than eight runs masks off the lanes past len(dst), and
// no load reads a word past state[nn-1]. It returns how many draws it
// made: len(dst), or eight per group before the first group in which
// some step's word lies outside its bound's window.
//
//go:noescape
func matchAVX512(state *[nn]uint64, i, w int, steps []fillStep, want []int32, dst []float64, p *matchPlan) int
