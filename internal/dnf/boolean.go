package dnf

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"cqabench/internal/cqa"
)

// Boolean is a classic DNF formula over n boolean variables, with clauses
// of signed literals: +v means variable v-1 is true, -v means false
// (variables are 1-based in clauses, as in DIMACS). It is counted by
// encoding each boolean variable as a block of size 2 (member 0 = true,
// member 1 = false) — the standard reduction to Block DNF.
type Boolean struct {
	NumVars int
	Clauses [][]int
}

// Validate checks that every literal references a declared variable and
// no clause contains both a literal and its negation (such clauses are
// unsatisfiable; the caller should drop them).
func (b *Boolean) Validate() error {
	if b.NumVars <= 0 {
		return errors.New("dnf: boolean formula needs at least one variable")
	}
	if b.NumVars > 62 {
		return fmt.Errorf("dnf: boolean formula limited to 62 variables, got %d", b.NumVars)
	}
	if len(b.Clauses) == 0 {
		return errors.New("dnf: boolean formula has no clauses")
	}
	for ci, c := range b.Clauses {
		if len(c) == 0 {
			return fmt.Errorf("dnf: clause %d is empty", ci)
		}
		seen := make(map[int]int, len(c))
		for _, l := range c {
			if l == 0 {
				return fmt.Errorf("dnf: clause %d has literal 0", ci)
			}
			v := l
			if v < 0 {
				v = -v
			}
			if v > b.NumVars {
				return fmt.Errorf("dnf: clause %d references variable %d > %d", ci, v, b.NumVars)
			}
			sign := 1
			if l < 0 {
				sign = -1
			}
			if prev, ok := seen[v]; ok && prev != sign {
				return fmt.Errorf("dnf: clause %d contains both %d and %d", ci, v, -v)
			}
			seen[v] = sign
		}
	}
	return nil
}

// ToBlock encodes the boolean formula as a Block DNF formula: one block
// of size 2 per variable, repeated literals within a clause deduplicated.
func (b *Boolean) ToBlock() (*Formula, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	f := &Formula{BlockSizes: make([]int32, b.NumVars)}
	for i := range f.BlockSizes {
		f.BlockSizes[i] = 2
	}
	for _, c := range b.Clauses {
		seen := make(map[int32]bool, len(c))
		var clause Clause
		for _, l := range c {
			v := l
			member := int32(0) // true
			if v < 0 {
				v = -v
				member = 1 // false
			}
			block := int32(v - 1)
			if seen[block] {
				continue // duplicate literal (same sign: Validate checked)
			}
			seen[block] = true
			clause = append(clause, Literal{Block: block, Var: member})
		}
		f.Clauses = append(f.Clauses, clause)
	}
	return f, nil
}

// maxExactVars bounds the variables that a formula's clauses may
// mention for CountSatisfying. Every value Exact computes on the formula's
// pair, whose blocks all have two members, is a multiple of 2⁻ᵗ, where t
// is the number of variables the clauses mention. Its inclusion–exclusion
// sums up to 255 signed terms 2⁻ʲ with j ≤ t, so a partial sum can reach
// 255 < 2⁸ in magnitude, and float64 holds every such sum exactly only
// while t + 8 ≤ 53. Below the bound the fraction is exact, and so is the
// count scaled from it.
const maxExactVars = 45

// CountSatisfying returns the exact number of satisfying boolean
// assignments: the fraction R that synopsis.(*Admissible).Exact computes
// on the block encoding's pair, times 2^NumVars. It refuses a formula
// whose clauses mention more than maxExactVars variables, and fails as
// Exact does when ctx is done or the compilation bound is exceeded.
func (b *Boolean) CountSatisfying(ctx context.Context) (*big.Int, error) {
	f, err := b.ToBlock()
	if err != nil {
		return nil, err
	}
	pair, err := f.ToAdmissible()
	if err != nil {
		return nil, err
	}
	if t := len(pair.BlockSizes); t > maxExactVars {
		return nil, fmt.Errorf("dnf: exact counting limited to %d variables in clauses, got %d", maxExactVars, t)
	}
	r, err := pair.Exact(ctx)
	if err != nil {
		return nil, err
	}
	count, _ := new(big.Float).SetMantExp(big.NewFloat(r), b.NumVars).Int(nil)
	return count, nil
}

// ApproxCountSatisfying estimates the number of satisfying boolean
// assignments via the Block DNF encoding and the chosen scheme.
func (b *Boolean) ApproxCountSatisfying(s cqa.Scheme, eps, delta float64, seed uint64) (*big.Float, error) {
	f, err := b.ToBlock()
	if err != nil {
		return nil, err
	}
	frac, err := f.ApproxFraction(s, eps, delta, seed)
	if err != nil {
		return nil, err
	}
	total := new(big.Float).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(b.NumVars)))
	return total.Mul(total, big.NewFloat(frac)), nil
}
