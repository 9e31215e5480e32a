package dnf

import (
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

// CountSatisfying returns the exact number of satisfying boolean
// assignments by exhaustive enumeration (NumVars <= 24 for sanity).
func (b *Boolean) CountSatisfying() (*big.Int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if b.NumVars > 24 {
		return nil, fmt.Errorf("dnf: exhaustive counting limited to 24 variables, got %d", b.NumVars)
	}
	count := int64(0)
	for a := uint64(0); a < uint64(1)<<b.NumVars; a++ {
		if b.satisfied(a) {
			count++
		}
	}
	return big.NewInt(count), nil
}

func (b *Boolean) satisfied(assignment uint64) bool {
	for _, c := range b.Clauses {
		ok := true
		for _, l := range c {
			v := l
			want := true
			if v < 0 {
				v = -v
				want = false
			}
			if (assignment>>(v-1))&1 == 1 != want {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
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
