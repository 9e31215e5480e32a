package dnf

import (
	"fmt"
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"cqabench/internal/cqa"
	"cqabench/internal/estimator"
	"cqabench/internal/mt"
	"cqabench/internal/sampler"
	"cqabench/internal/synopsis"
)

func blockFormula(t *testing.T) *Formula {
	t.Helper()
	f := &Formula{
		BlockSizes: []int32{2, 3, 2},
		Clauses: []Clause{
			{{Block: 0, Var: 0}},
			{{Block: 1, Var: 1}, {Block: 2, Var: 0}},
		},
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]*Formula{
		"no clauses":   {BlockSizes: []int32{2}},
		"empty clause": {BlockSizes: []int32{2}, Clauses: []Clause{{}}},
		"bad block":    {BlockSizes: []int32{2}, Clauses: []Clause{{{Block: 5, Var: 0}}}},
		"bad var":      {BlockSizes: []int32{2}, Clauses: []Clause{{{Block: 0, Var: 9}}}},
		"dup block":    {BlockSizes: []int32{2}, Clauses: []Clause{{{Block: 0, Var: 0}, {Block: 0, Var: 1}}}},
		"zero size":    {BlockSizes: []int32{0}, Clauses: []Clause{{{Block: 0, Var: 0}}}},
	}
	for name, f := range cases {
		if err := f.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestNumAssignments(t *testing.T) {
	f := blockFormula(t)
	if f.NumAssignments().Cmp(big.NewInt(12)) != 0 {
		t.Fatalf("assignments = %v, want 12", f.NumAssignments())
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	f := blockFormula(t)
	ie, err := f.ExactFraction(0)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := f.BruteForceFraction(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ie-bf) > 1e-12 {
		t.Fatalf("exact %v vs brute force %v", ie, bf)
	}
	// Hand count: clause 1 covers 6 of 12; clause 2 covers 2 of 12;
	// overlap 1. Union 7/12.
	if math.Abs(ie-7.0/12) > 1e-12 {
		t.Fatalf("fraction = %v, want 7/12", ie)
	}
}

func TestUntouchedBlocksDropped(t *testing.T) {
	// Block 1 is untouched: it must not change the fraction.
	f := &Formula{
		BlockSizes: []int32{2, 7, 2},
		Clauses: []Clause{
			{{Block: 0, Var: 0}, {Block: 2, Var: 1}},
		},
	}
	frac, err := f.ExactFraction(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(frac-0.25) > 1e-12 {
		t.Fatalf("fraction = %v, want 1/4", frac)
	}
}

func TestRoundTripAdmissible(t *testing.T) {
	pair := &synopsis.Admissible{
		BlockSizes: []int32{2, 3},
		Images: []synopsis.Image{
			{{Block: 0, Fact: 0}},
			{{Block: 0, Fact: 1}, {Block: 1, Fact: 2}},
		},
	}
	pair.Canonicalize()
	f, err := FromAdmissible(pair)
	if err != nil {
		t.Fatal(err)
	}
	back, err := f.ToAdmissible()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := pair.ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := back.ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1-r2) > 1e-12 {
		t.Fatalf("round trip changed the ratio: %v vs %v", r1, r2)
	}
}

func TestApproxFractionAllMethods(t *testing.T) {
	f := blockFormula(t)
	want, err := f.ExactFraction(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cqa.Schemes {
		got, err := f.ApproxFraction(m, 0.1, 0.25, 42)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if math.Abs(got-want) > 0.1*want {
			t.Fatalf("%v: %v, want %v ± 10%%", m, got, want)
		}
	}
	if _, err := f.ApproxFraction(cqa.Scheme(9), 0.1, 0.25, 1); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// referenceApproxFraction is ApproxFraction as it was before it ran
// through cqa's answer call: the scheme's plain sampler, the estimator,
// the weight and the clamp, drawing from mt.New(seed).
func referenceApproxFraction(f *Formula, s cqa.Scheme, eps, delta float64, seed uint64) (float64, error) {
	pair, err := f.ToAdmissible()
	if err != nil {
		return 0, err
	}
	src := mt.New(seed)
	switch s {
	case cqa.Natural:
		r, err := estimator.MonteCarlo(sampler.NewNatural(pair), eps, delta, src, estimator.Budget{})
		return clamp01(r.Estimate), err
	case cqa.KL:
		kl := sampler.NewKL(pair)
		r, err := estimator.MonteCarlo(kl, eps, delta, src, estimator.Budget{})
		return clamp01(r.Estimate * kl.Weight()), err
	case cqa.KLM:
		klm := sampler.NewKLM(pair)
		r, err := estimator.MonteCarlo(klm, eps, delta, src, estimator.Budget{})
		return clamp01(r.Estimate * klm.Weight()), err
	case cqa.Cover:
		r, err := estimator.SelfAdjustingCoverage(sampler.NewSymbolic(pair), eps, delta, src, estimator.Budget{})
		return clamp01(r.Estimate), err
	}
	return 0, fmt.Errorf("unknown scheme %v", s)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// wideFormula has 3000 clauses of one or two literals over 30 blocks of
// 24 variables: the shape on which sampler.SelectKernel picks the
// indexed kernel.
func wideFormula() *Formula {
	const nBlocks, blockSize = 30, 24
	f := &Formula{}
	for b := 0; b < nBlocks; b++ {
		f.BlockSizes = append(f.BlockSizes, blockSize)
	}
	src := mt.New(3)
	for i := 0; i < 3000; i++ {
		b1, b2 := int32(src.Intn(nBlocks)), int32(src.Intn(nBlocks))
		c := Clause{{Block: b1, Var: int32(src.Intn(blockSize))}}
		if b2 != b1 {
			c = append(c, Literal{Block: b2, Var: int32(src.Intn(blockSize))})
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// TestApproxFractionMatchesSamplerPath: the answer call draws the same
// stream as the per-scheme sampler path it replaced, so every scheme's
// estimate is bit-identical, on the plain and on the indexed kernel.
func TestApproxFractionMatchesSamplerPath(t *testing.T) {
	wide := wideFormula()
	pair, err := wide.ToAdmissible()
	if err != nil {
		t.Fatal(err)
	}
	if k := sampler.SelectKernel(pair); k != sampler.Indexed {
		t.Fatalf("wide formula runs the %v kernel, want indexed", k)
	}
	for name, f := range map[string]*Formula{"block": blockFormula(t), "wide": wide} {
		for _, s := range cqa.Schemes {
			for _, seed := range []uint64{1, 42, 5489} {
				got, err := f.ApproxFraction(s, 0.1, 0.25, seed)
				if err != nil {
					t.Fatalf("%s %v seed %d: %v", name, s, seed, err)
				}
				want, err := referenceApproxFraction(f, s, 0.1, 0.25, seed)
				if err != nil {
					t.Fatalf("%s %v seed %d reference: %v", name, s, seed, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s %v seed %d: %v, reference %v", name, s, seed, got, want)
				}
			}
		}
	}
}

func TestApproxCount(t *testing.T) {
	f := blockFormula(t)
	c, err := f.ApproxCount(cqa.KLM, 0.1, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := c.Float64()
	if math.Abs(got-7) > 1 {
		t.Fatalf("count = %v, want ~7", got)
	}
}

func TestBooleanValidate(t *testing.T) {
	cases := map[string]*Boolean{
		"no vars":       {NumVars: 0, Clauses: [][]int{{1}}},
		"too many vars": {NumVars: 70, Clauses: [][]int{{1}}},
		"no clauses":    {NumVars: 2},
		"empty clause":  {NumVars: 2, Clauses: [][]int{{}}},
		"zero literal":  {NumVars: 2, Clauses: [][]int{{0}}},
		"out of range":  {NumVars: 2, Clauses: [][]int{{5}}},
		"contradiction": {NumVars: 2, Clauses: [][]int{{1, -1}}},
	}
	for name, b := range cases {
		if err := b.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestBooleanExactCount(t *testing.T) {
	// (x1 AND x2) OR (NOT x3): over 3 vars.
	// x1&x2: assignments 2 (x3 free). !x3: 4. Overlap: x1&x2&!x3: 1. Union 5.
	b := &Boolean{NumVars: 3, Clauses: [][]int{{1, 2}, {-3}}}
	n, err := b.CountSatisfying()
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(5)) != 0 {
		t.Fatalf("count = %v, want 5", n)
	}
}

func TestBooleanBlockEncodingMatchesEnumeration(t *testing.T) {
	b := &Boolean{NumVars: 4, Clauses: [][]int{{1, -2}, {3}, {-1, 4}}}
	exact, err := b.CountSatisfying()
	if err != nil {
		t.Fatal(err)
	}
	f, err := b.ToBlock()
	if err != nil {
		t.Fatal(err)
	}
	frac, err := f.ExactFraction(0)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(exact.Int64()) / 16
	if math.Abs(frac-want) > 1e-12 {
		t.Fatalf("block fraction %v, enumeration %v", frac, want)
	}
}

func TestBooleanApproxCount(t *testing.T) {
	b := &Boolean{NumVars: 6, Clauses: [][]int{{1, 2, 3}, {-4, 5}, {6}}}
	exact, err := b.CountSatisfying()
	if err != nil {
		t.Fatal(err)
	}
	approx, err := b.ApproxCountSatisfying(cqa.KLM, 0.1, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := approx.Float64()
	want := float64(exact.Int64())
	if math.Abs(got-want) > 0.1*want+1 {
		t.Fatalf("approx %v, exact %v", got, want)
	}
}

func TestBooleanDuplicateLiteralDeduped(t *testing.T) {
	b := &Boolean{NumVars: 2, Clauses: [][]int{{1, 1}}}
	f, err := b.ToBlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses[0]) != 1 {
		t.Fatalf("clause = %v, want single literal", f.Clauses[0])
	}
}

// Property: for random small boolean DNFs, the block encoding's exact
// fraction always equals exhaustive enumeration.
func TestBooleanEncodingProperty(t *testing.T) {
	f := func(raw [][3]int8, nv uint8) bool {
		n := int(nv%5) + 1
		b := &Boolean{NumVars: n}
		for _, r := range raw {
			var clause []int
			for _, l := range r {
				v := int(l)%n + 1
				if v == 0 {
					continue
				}
				if l < 0 {
					v = -v
				}
				clause = append(clause, v)
			}
			if len(clause) > 0 {
				b.Clauses = append(b.Clauses, clause)
			}
		}
		if len(b.Clauses) == 0 {
			return true
		}
		if err := b.Validate(); err != nil {
			return true // contradictory random clause: fine to reject
		}
		exact, err := b.CountSatisfying()
		if err != nil {
			return false
		}
		blk, err := b.ToBlock()
		if err != nil {
			return false
		}
		frac, err := blk.BruteForceFraction(0)
		if err != nil {
			return false
		}
		want := float64(exact.Int64()) / math.Pow(2, float64(n))
		return math.Abs(frac-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
