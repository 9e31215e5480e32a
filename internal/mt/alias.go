package mt

// Alias is a Walker alias table for O(1) sampling from a fixed discrete
// distribution. The KL and KLM samplers use it to choose a homomorphic
// image index i with probability |I^i| / |S•|: the distribution is fixed
// per synopsis while the optimal estimator may draw millions of samples
// from it, so the O(n) preprocessing amortizes immediately.
type Alias struct {
	prob  []float64
	alias []int32
	bound Bound // Intn(len(prob)), compiled
}

// NewAlias builds an alias table from non-negative weights. Weights need
// not be normalized. It panics if weights is empty or sums to zero or the
// weights contain a negative or non-finite entry.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("mt: NewAlias with no weights")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 || w != w || w > 1e308 {
			panic("mt: NewAlias weight out of range")
		}
		sum += w
	}
	if sum <= 0 {
		panic("mt: NewAlias weights sum to zero")
	}

	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int32, n),
		bound: NewBound(n),
	}
	// Scaled probabilities; mean 1.
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := n - 1; i >= 0; i-- {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[l] = scaled[l]
		a.alias[l] = g
		scaled[g] = (scaled[g] + scaled[l]) - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	// Remaining entries have probability 1 up to floating-point error.
	for _, g := range large {
		a.prob[g] = 1
	}
	for _, l := range small {
		a.prob[l] = 1
	}
	return a
}

// Draw returns an index distributed according to the table's weights.
func (a *Alias) Draw(src *Source) int {
	i := a.bound.Draw(src)
	if src.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}
