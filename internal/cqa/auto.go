package cqa

import "cqabench/internal/synopsis"

// SelectScheme implements the paper's practical recommendation (take-home
// messages, Section 7.2): after the preprocessing step one inspects the
// synopsis set and picks the indicated scheme — Natural for Boolean and
// balance-≈0 queries (where each synopsis holds many images and R(H,B) is
// large), KLM otherwise (where synopses are small and the symbolic space
// is tight). The threshold is the crossover region the noise and balance
// scenarios exhibit; EXPERIMENTS.md's Figure 2 places it between the 25%
// and 50% balance levels, and the validation scenarios confirm Natural
// keeps winning below ~10%.
func SelectScheme(set *synopsis.Set) Scheme {
	if set.Balance() < autoBalanceThreshold {
		return Natural
	}
	return KLM
}

// autoBalanceThreshold is the balance below which queries behave as
// Boolean for scheme-selection purposes.
const autoBalanceThreshold = 0.1
