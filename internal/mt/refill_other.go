//go:build !amd64

package mt

// Off amd64 the scalar loop is the only refill.
func hasAVX2() bool { return false }

func refillAVX2(*[nn]uint64) { panic("mt: the AVX2 refill exists only on amd64") }
