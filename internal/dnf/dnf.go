// Package dnf implements the DNF-counting substrate the paper's
// implementation builds on (Section 5 extends the Approximate DNF
// Counting Suite of Meel, Shrotri and Vardi [24]; Appendix E spells out
// the correspondence): a database synopsis is exactly a Block DNF
// formula — a positive DNF whose variables are partitioned into blocks
// X_1,...,X_m, evaluated only over assignments that set exactly one
// variable per block true. Facts are variables, homomorphic images are
// clauses, and the fraction of satisfying block assignments is R(H, B).
//
// The package provides the Block DNF type, a lossless bridge to and from
// admissible pairs (so every approximation scheme in internal/cqa doubles
// as a DNF counter), classic DNF formulas with negative literals encoded
// as two-variable blocks, exact counting through the pair's
// synopsis.(*Admissible).Exact, and approximate counting through cqa's
// answer call.
package dnf

import (
	"context"
	"errors"
	"fmt"

	"cqabench/internal/cqa"
	"cqabench/internal/synopsis"
)

// Literal asserts that block Block's variable Var is the one set true.
type Literal struct {
	Block int32
	Var   int32
}

// Clause is a conjunction of literals (at most one per block; two
// literals on the same block make the clause unsatisfiable and are
// rejected by Validate).
type Clause []Literal

// Formula is a Block DNF formula: the disjunction of its clauses over
// block-partitioned variables.
type Formula struct {
	BlockSizes []int32
	Clauses    []Clause
}

// Validate checks structural sanity: positive block sizes, literals in
// range, at most one literal per block per clause, and at least one
// clause with at least one literal each.
func (f *Formula) Validate() error {
	if len(f.Clauses) == 0 {
		return errors.New("dnf: formula has no clauses")
	}
	for b, sz := range f.BlockSizes {
		if sz < 1 {
			return fmt.Errorf("dnf: block %d has size %d", b, sz)
		}
	}
	for ci, c := range f.Clauses {
		if len(c) == 0 {
			return fmt.Errorf("dnf: clause %d is empty", ci)
		}
		seen := make(map[int32]bool, len(c))
		for _, l := range c {
			if int(l.Block) >= len(f.BlockSizes) || l.Block < 0 {
				return fmt.Errorf("dnf: clause %d references unknown block %d", ci, l.Block)
			}
			if l.Var < 0 || l.Var >= f.BlockSizes[l.Block] {
				return fmt.Errorf("dnf: clause %d literal out of range for block %d", ci, l.Block)
			}
			if seen[l.Block] {
				return fmt.Errorf("dnf: clause %d has two literals on block %d", ci, l.Block)
			}
			seen[l.Block] = true
		}
	}
	return nil
}

// ToAdmissible converts the formula into an admissible pair, dropping
// blocks no clause touches (they contribute equally to the numerator and
// denominator of the satisfying fraction, so the fraction is unchanged).
func (f *Formula) ToAdmissible() (*synopsis.Admissible, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	touched := make([]bool, len(f.BlockSizes))
	for _, c := range f.Clauses {
		for _, l := range c {
			touched[l.Block] = true
		}
	}
	remap := make([]int32, len(f.BlockSizes))
	pair := &synopsis.Admissible{}
	for b, ok := range touched {
		if ok {
			remap[b] = int32(len(pair.BlockSizes))
			pair.BlockSizes = append(pair.BlockSizes, f.BlockSizes[b])
		}
	}
	for _, c := range f.Clauses {
		img := make(synopsis.Image, len(c))
		for i, l := range c {
			img[i] = synopsis.Member{Block: remap[l.Block], Fact: l.Var}
		}
		pair.Images = append(pair.Images, img)
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		return nil, err
	}
	return pair, nil
}

// FromAdmissible converts an admissible pair into its Block DNF formula
// (the inverse direction of the Appendix E correspondence).
func FromAdmissible(pair *synopsis.Admissible) (*Formula, error) {
	if err := pair.Validate(); err != nil {
		return nil, err
	}
	f := &Formula{BlockSizes: append([]int32(nil), pair.BlockSizes...)}
	for _, img := range pair.Images {
		c := make(Clause, len(img))
		for i, m := range img {
			c[i] = Literal{Block: m.Block, Var: m.Fact}
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f, nil
}

// ExactFraction computes the fraction of satisfying block assignments
// with the formula's admissible pair's Exact, which polls ctx.
func (f *Formula) ExactFraction(ctx context.Context) (float64, error) {
	pair, err := f.ToAdmissible()
	if err != nil {
		return 0, err
	}
	return pair.Exact(ctx)
}

// ApproxFraction estimates the satisfying fraction with relative error
// eps and confidence 1-delta: the formula's admissible pair runs through
// cqa's answer call as a one-entry synopsis set, so each CQA scheme
// (Section 4) counts the DNF it came from, drawing from mt.New(seed).
func (f *Formula) ApproxFraction(s cqa.Scheme, eps, delta float64, seed uint64) (float64, error) {
	pair, err := f.ToAdmissible()
	if err != nil {
		return 0, err
	}
	set := &synopsis.Set{Entries: []synopsis.Entry{{Pair: pair}}}
	res, _, err := cqa.ApxAnswersFromSetContext(context.Background(), set, s, cqa.Options{Eps: eps, Delta: delta, Seed: seed})
	if err != nil {
		return 0, err
	}
	return res[0].Freq, nil
}
