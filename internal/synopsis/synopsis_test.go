package synopsis

import (
	"errors"
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"cqabench/internal/cq"
	"cqabench/internal/relation"
	"cqabench/internal/repair"
)

func employeeDB(t *testing.T) *relation.Database {
	t.Helper()
	s := relation.MustSchema([]relation.RelDef{
		{Name: "Employee", Attrs: []string{"id", "name", "dept"}, KeyLen: 1},
	}, nil)
	db := relation.NewDatabase(s)
	db.MustInsert("Employee", 1, "Bob", "HR")
	db.MustInsert("Employee", 1, "Bob", "IT")
	db.MustInsert("Employee", 2, "Alice", "IT")
	db.MustInsert("Employee", 2, "Tim", "IT")
	return db
}

func TestBuildExampleBoolean(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q() :- Employee(1, n1, d), Employee(2, n2, d)", db.Dict)
	set, err := Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Entries) != 1 {
		t.Fatalf("entries = %d, want 1 (Boolean)", len(set.Entries))
	}
	pair := set.Entries[0].Pair
	// Witnesses: (Bob,IT)&(Alice,IT), (Bob,IT)&(Tim,IT): 2 images.
	if pair.NumImages() != 2 {
		t.Fatalf("|H| = %d, want 2", pair.NumImages())
	}
	got, err := pair.ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("R(H,B) = %v, want 0.5", got)
	}
	bf, err := pair.BruteForceRatio(0)
	if err != nil || math.Abs(bf-got) > 1e-12 {
		t.Fatalf("brute force = %v (%v), want %v", bf, err, got)
	}
}

func TestBuildFiltersInconsistentImages(t *testing.T) {
	db := employeeDB(t)
	// Q() :- Employee(1, n, d1), Employee(1, m, d2): any homomorphism using
	// both (1,Bob,HR) and (1,Bob,IT) violates the key; only same-fact
	// images survive.
	q := cq.MustParse("Q() :- Employee(1, n, d1), Employee(1, m, d2)", db.Dict)
	set, err := Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Entries) != 1 {
		t.Fatalf("entries = %d", len(set.Entries))
	}
	pair := set.Entries[0].Pair
	// Two consistent images: {(1,Bob,HR)}, {(1,Bob,IT)} (the mixed ones are
	// filtered).
	if pair.NumImages() != 2 {
		t.Fatalf("|H| = %d, want 2", pair.NumImages())
	}
	r, err := pair.ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("R = %v, want 1 (one of the two facts is always kept)", r)
	}
}

func TestBuildNonBooleanEntries(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, 'IT')", db.Dict)
	set, err := Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Entries) != 3 { // Bob, Alice, Tim
		t.Fatalf("entries = %d, want 3", len(set.Entries))
	}
	for _, e := range set.Entries {
		r, err := e.Pair.ExactRatio(0)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := repair.ExactRelativeFreq(db, q, e.Tuple, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r-exact) > 1e-12 {
			t.Fatalf("tuple %v: synopsis ratio %v vs repair enumeration %v", e.Tuple, r, exact)
		}
	}
}

func TestNoAnswersEmptySet(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q() :- Employee(9, n, d)", db.Dict)
	set, err := Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Entries) != 0 || set.HomomorphicSize != 0 || set.Balance() != 0 {
		t.Fatalf("empty query: %+v", set)
	}
}

func TestDynamics(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, 'IT')", db.Dict)
	set, err := Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if set.OutputSize() != 3 {
		t.Fatalf("output size = %d", set.OutputSize())
	}
	if set.HomomorphicSize != 3 { // three distinct single-fact images
		t.Fatalf("homomorphic size = %d, want 3", set.HomomorphicSize)
	}
	if set.Balance() != 1 {
		t.Fatalf("balance = %v, want 1", set.Balance())
	}
	if set.AvgSynopsisSize() != 1 {
		t.Fatalf("avg synopsis size = %v", set.AvgSynopsisSize())
	}
	// The Boolean version has all images in one synopsis: balance 1/3.
	setB, err := Build(db, q.Boolean())
	if err != nil {
		t.Fatal(err)
	}
	if setB.OutputSize() != 1 || setB.HomomorphicSize != 3 {
		t.Fatalf("boolean dynamics: out=%d hom=%d", setB.OutputSize(), setB.HomomorphicSize)
	}
	if math.Abs(setB.Balance()-1.0/3) > 1e-12 {
		t.Fatalf("boolean balance = %v", setB.Balance())
	}
}

func TestImageFacts(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q(n) :- Employee(i, n, 'IT')", db.Dict)
	set, err := Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	facts := set.ImageFacts()
	if len(facts) != 3 {
		t.Fatalf("image facts = %d, want 3 (the IT facts)", len(facts))
	}
	for i := 1; i < len(facts); i++ {
		if !facts[i-1].Less(facts[i]) {
			t.Fatal("image facts not sorted/deduped")
		}
	}
}

func TestBlockSizesMatchDatabase(t *testing.T) {
	db := employeeDB(t)
	q := cq.MustParse("Q() :- Employee(1, n, d)", db.Dict)
	set, err := Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	pair := set.Entries[0].Pair
	if pair.NumBlocks() != 1 || pair.BlockSizes[0] != 2 {
		t.Fatalf("blocks = %v", pair.BlockSizes)
	}
	if pair.DBSize().Cmp(big.NewInt(2)) != 0 {
		t.Fatal("db(B) size wrong")
	}
}

func TestAnonymousBlockMembers(t *testing.T) {
	// A block can be larger than the number of its facts appearing in
	// images: the extra members are anonymous conflicting facts.
	s := relation.MustSchema([]relation.RelDef{
		{Name: "R", Attrs: []string{"k", "v"}, KeyLen: 1},
	}, nil)
	db := relation.NewDatabase(s)
	db.MustInsert("R", 1, 10)
	db.MustInsert("R", 1, 20)
	db.MustInsert("R", 1, 30)
	q := cq.MustParse("Q() :- R(1, 10)", db.Dict)
	set, err := Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	pair := set.Entries[0].Pair
	if pair.NumBlocks() != 1 || pair.BlockSizes[0] != 3 || pair.NumImages() != 1 {
		t.Fatalf("pair = %+v", pair)
	}
	r, err := pair.ExactRatio(0)
	if err != nil || math.Abs(r-1.0/3) > 1e-12 {
		t.Fatalf("R = %v (%v), want 1/3", r, err)
	}
}

func TestValidateRejectsBadPairs(t *testing.T) {
	cases := map[string]*Admissible{
		"empty H":          {BlockSizes: []int32{2}},
		"empty image":      {BlockSizes: []int32{2}, Images: []Image{{}}},
		"bad block size":   {BlockSizes: []int32{0}, Images: []Image{{{0, 0}}}},
		"unknown block":    {BlockSizes: []int32{2}, Images: []Image{{{5, 0}}}},
		"member overflow":  {BlockSizes: []int32{2}, Images: []Image{{{0, 7}}}},
		"dup block in img": {BlockSizes: []int32{2}, Images: []Image{{{0, 0}, {0, 1}}}},
		"untouched block":  {BlockSizes: []int32{2, 2}, Images: []Image{{{0, 0}}}},
	}
	for name, pair := range cases {
		if err := pair.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestCanonicalizeDedupes(t *testing.T) {
	pair := &Admissible{
		BlockSizes: []int32{2, 3},
		Images: []Image{
			{{1, 0}, {0, 0}}, // unsorted
			{{0, 0}, {1, 0}}, // duplicate of above
			{{0, 1}},
		},
	}
	pair.Canonicalize()
	if len(pair.Images) != 2 {
		t.Fatalf("images after dedupe = %d, want 2", len(pair.Images))
	}
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSymbolicSizeConsistency(t *testing.T) {
	pair := &Admissible{
		BlockSizes: []int32{2, 3, 4},
		Images: []Image{
			{{0, 0}},
			{{1, 1}, {2, 2}},
			{{0, 1}, {1, 0}},
		},
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	// |S•| = 12 + 2 + 4 = 18; db(B) = 24; weight = 18/24.
	if w := pair.SymbolicWeight(); math.Abs(w-18.0/24) > 1e-12 {
		t.Fatalf("symbolic weight = %v, want 0.75", w)
	}
	// Image weights in canonical order ({{0,0}} < {{0,1},{1,0}} < {{1,1},{2,2}}):
	// 1/2, 1/6, 1/12.
	for i, want := range []float64{1.0 / 2, 1.0 / 6, 1.0 / 12} {
		if got := pair.ImageWeight(i); math.Abs(got-want) > 1e-12 {
			t.Fatalf("ImageWeight(%d) = %v, want %v", i, got, want)
		}
	}
	sum := 0.0
	for i := range pair.Images {
		sum += pair.ImageWeight(i)
	}
	if math.Abs(sum-pair.SymbolicWeight()) > 1e-12 {
		t.Fatal("image weights do not sum to symbolic weight")
	}
}

func TestExactRatioAgainstBruteForce(t *testing.T) {
	pair := &Admissible{
		BlockSizes: []int32{2, 3, 2, 4},
		Images: []Image{
			{{0, 0}, {1, 2}},
			{{1, 2}, {2, 1}},
			{{0, 1}, {3, 3}},
			{{2, 0}},
		},
	}
	pair.Canonicalize()
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	ie, err := pair.ExactRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := pair.BruteForceRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ie-bf) > 1e-12 {
		t.Fatalf("inclusion-exclusion %v vs brute force %v", ie, bf)
	}
}

func TestExactRatioTooLarge(t *testing.T) {
	pair := &Admissible{BlockSizes: []int32{2}}
	for i := 0; i < 30; i++ {
		pair.Images = append(pair.Images, Image{{0, 0}})
	}
	if _, err := pair.ExactRatio(22); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	big := &Admissible{}
	for i := 0; i < 64; i++ {
		big.BlockSizes = append(big.BlockSizes, 4)
	}
	big.Images = []Image{{{0, 0}}}
	if _, err := big.BruteForceRatio(1 << 20); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("brute force err = %v, want ErrTooLarge", err)
	}
}

// randomPair builds a random valid admissible pair from fuzz bytes.
func randomPair(seed []byte) *Admissible {
	if len(seed) < 3 {
		return nil
	}
	nBlocks := int(seed[0]%4) + 1
	nImages := int(seed[1]%5) + 1
	pair := &Admissible{}
	for b := 0; b < nBlocks; b++ {
		pair.BlockSizes = append(pair.BlockSizes, int32(seed[(2+b)%len(seed)]%4)+1)
	}
	pos := 2 + nBlocks
	next := func() byte {
		b := seed[pos%len(seed)]
		pos++
		return b
	}
	for i := 0; i < nImages; i++ {
		var img Image
		for b := 0; b < nBlocks; b++ {
			if next()%2 == 0 {
				img = append(img, Member{Block: int32(b), Fact: int32(next()) % pair.BlockSizes[b]})
			}
		}
		if len(img) == 0 {
			img = Image{{Block: 0, Fact: int32(next()) % pair.BlockSizes[0]}}
		}
		pair.Images = append(pair.Images, img)
	}
	pair.Canonicalize()
	dropUntouchedBlocks(pair)
	if pair.Validate() != nil {
		return nil
	}
	return pair
}

// dropUntouchedBlocks renumbers away the blocks no image touches, which
// keeps a random pair admissible.
func dropUntouchedBlocks(pair *Admissible) {
	touched := make([]bool, len(pair.BlockSizes))
	for _, img := range pair.Images {
		for _, m := range img {
			touched[m.Block] = true
		}
	}
	remap := make([]int32, len(pair.BlockSizes))
	var sizes []int32
	for b, ok := range touched {
		if ok {
			remap[b] = int32(len(sizes))
			sizes = append(sizes, pair.BlockSizes[b])
		}
	}
	for _, img := range pair.Images {
		for k := range img {
			img[k].Block = remap[img[k].Block]
		}
	}
	pair.BlockSizes = sizes
}

// Property: inclusion-exclusion always matches brute-force enumeration on
// random admissible pairs.
func TestExactRatioProperty(t *testing.T) {
	f := func(seed []byte) bool {
		pair := randomPair(seed)
		if pair == nil {
			return true
		}
		ie, err1 := pair.ExactRatio(0)
		bf, err2 := pair.BruteForceRatio(0)
		if err1 != nil || err2 != nil {
			return true
		}
		return math.Abs(ie-bf) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the synopsis route and the repair-enumeration route agree on
// every answer tuple's relative frequency for random small databases
// (Lemma 4.1(3) end-to-end).
func TestSynopsisMatchesRepairsProperty(t *testing.T) {
	s := relation.MustSchema([]relation.RelDef{
		{Name: "R", Attrs: []string{"k", "v"}, KeyLen: 1},
		{Name: "S", Attrs: []string{"k", "v"}, KeyLen: 1},
	}, nil)
	f := func(rs, ss []struct{ K, V uint8 }) bool {
		if len(rs) > 6 {
			rs = rs[:6]
		}
		if len(ss) > 6 {
			ss = ss[:6]
		}
		db := relation.NewDatabase(s)
		for _, p := range rs {
			db.MustInsert("R", int(p.K%3), int(p.V%3))
		}
		for _, p := range ss {
			db.MustInsert("S", int(p.K%3), int(p.V%3)+10)
		}
		q := cq.MustParse("Q(v) :- R(k, j), S(j, v)", db.Dict)
		set, err := Build(db, q)
		if err != nil {
			return false
		}
		for _, e := range set.Entries {
			r, err := e.Pair.ExactRatio(0)
			if err != nil {
				continue
			}
			exact, err := repair.ExactRelativeFreq(db, q, e.Tuple, 0)
			if err != nil || math.Abs(r-exact) > 1e-9 {
				return false
			}
			if r <= 0 {
				return false // entries must have positive frequency
			}
		}
		// Lemma 4.1(4): tuples with positive frequency are exactly the
		// entries.
		all, err := repair.ExactAnswers(db, q, 0)
		if err != nil {
			return false
		}
		return len(all) == len(set.Entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverHelpers(t *testing.T) {
	pair := &Admissible{
		BlockSizes: []int32{2, 2},
		Images: []Image{
			{{0, 0}},
			{{0, 0}, {1, 1}},
			{{1, 0}},
		},
	}
	pair.Canonicalize()
	chosen := []int32{0, 1}
	if !pair.Covers(0, chosen) {
		t.Fatal("image 0 should be covered")
	}
	if got := pair.CoverCount(chosen); got != 2 {
		t.Fatalf("CoverCount = %d, want 2", got)
	}
	if got := pair.FirstCover([]int32{1, 1}); got != -1 {
		t.Fatalf("FirstCover = %d, want -1", got)
	}
	if pair.MaxImageSize() != 2 {
		t.Fatal("MaxImageSize wrong")
	}
}
