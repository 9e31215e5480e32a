//go:build !amd64

package mt

// Off amd64 the scalar loops are the only refill and match.
func hasAVX2() bool { return false }

func refillAVX2(*[nn]uint64) { panic("mt: the AVX2 refill exists only on amd64") }

func matchAVX2(*[nn]uint64, int, int, []fillStep, []int32, []float64, int) int {
	panic("mt: the AVX2 match exists only on amd64")
}
