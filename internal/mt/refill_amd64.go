package mt

// hasAVX2 reports whether the CPU has AVX2 and the operating system
// saves the YMM registers.
func hasAVX2() bool

// refillAVX2 rewrites words 0 to nn-5 of s as the scalar recurrence
// does, four words per instruction. The last four words are left to the
// caller: the final one wraps around to the new s[0].
//
//go:noescape
func refillAVX2(s *[nn]uint64)
