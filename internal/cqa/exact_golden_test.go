package cqa

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"cqabench/internal/cq"
	"cqabench/internal/cqaerr"
	"cqabench/internal/noise"
	"cqabench/internal/scenario"
	"cqabench/internal/synopsis"
)

// The exact golden file pins every tuple's exact relative frequency over
// the Lab pairs that the synopsis build golden (internal/syncache) pins
// bit for bit: SF 0.0002, one query per join level, joins 1–3 × noise
// {0.2, 0.6, 1.0} × balance {0, 0.5, 1}, 7,694 tuples. The values are
// compared within exactTol, since a new summation order may move the
// last bits. Regenerate (only when the pinned pairs change) with:
//
//	go test ./internal/cqa -run TestExactGolden -update-exact-golden
var updateExactGolden = flag.Bool("update-exact-golden", false,
	"rewrite testdata/exact_golden.json from the current implementation")

const (
	exactGoldenPath = "testdata/exact_golden.json"
	exactTol        = 1e-12
)

// labGoldenPairs generates the 27 pinned Lab pairs, in the order the
// synopsis build golden generates them.
func labGoldenPairs(t *testing.T) []scenario.Pair {
	t.Helper()
	cfg := scenario.DefaultConfig()
	cfg.ScaleFactor = 0.0002
	cfg.QueriesPerJoin = 1
	lab, err := scenario.NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []scenario.Pair
	for _, balance := range []float64{0, 0.5, 1} {
		for joins := 1; joins <= 3; joins++ {
			w, err := lab.NoiseScenario(balance, joins, []float64{0.2, 0.6, 1.0})
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, w.Pairs...)
		}
	}
	return pairs
}

// TestExactGolden checks ExactAnswersFromSet against the pinned exact
// frequencies of every tuple of the Lab pairs.
func TestExactGolden(t *testing.T) {
	got := make(map[string][]float64)
	multi := 0
	for _, p := range labGoldenPairs(t) {
		set, err := synopsis.Build(p.DB, p.Query)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		res, err := ExactAnswersFromSet(set, 0)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i, tf := range res {
			// Thirteen significant digits keep the file small and every
			// value within 5e-14 of the computed one.
			r, _ := strconv.ParseFloat(strconv.FormatFloat(tf.Freq, 'g', 13, 64), 64)
			got[p.Name] = append(got[p.Name], r)
			if set.Entries[i].Pair.NumImages() > 1 {
				multi++
			}
		}
	}
	if *updateExactGolden {
		// One pair per line.
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var buf bytes.Buffer
		buf.WriteString("{\n")
		for k, name := range names {
			vals, err := json.Marshal(got[name])
			if err != nil {
				t.Fatal(err)
			}
			sep := ","
			if k == len(names)-1 {
				sep = ""
			}
			fmt.Fprintf(&buf, "%q: %s%s\n", name, vals, sep)
		}
		buf.WriteString("}\n")
		if err := os.WriteFile(exactGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(exactGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update-exact-golden): %v", err)
	}
	var want map[string][]float64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs, golden file has %d", len(got), len(want))
	}
	tuples := 0
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Errorf("%s: %d tuples, golden %d", name, len(g), len(w))
			continue
		}
		for i := range w {
			if math.Abs(g[i]-w[i]) > exactTol {
				t.Errorf("%s tuple %d: exact %.17g, golden %.17g", name, i, g[i], w[i])
			}
		}
		tuples += len(w)
	}
	t.Logf("%d pairs, %d tuples, %d with more than one image", len(want), tuples, multi)
}

// readmeSet builds the synopses of the README's customer–orders query
// over TPC-H at SF 0.0002 (generator seed 1) with query-aware noise p
// (noise seed 1, blocks of 2–5 facts), as gen and noise make them.
func readmeSet(t *testing.T, p float64) *synopsis.Set {
	t.Helper()
	db, err := scenario.GenerateDB("tpch", 0.0002, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cq.Parse("Q(seg) :- customer(c, n, a, nk, ph, b, seg, cm), orders(o, c, st, tp, d, pr, cl, sp, ocm)", db.Dict)
	if err != nil {
		t.Fatal(err)
	}
	noisy, _, err := noise.Apply(db, q, noise.Config{P: p, MinBlock: 2, MaxBlock: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	set, err := synopsis.Build(noisy, q)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestExactReadmePairs pins the README query's exact frequencies at
// noise 0.5 and 0.8: five tuples of 217–844 images each. The reference
// values were computed by component-split inclusion–exclusion and
// compilation on each pair without the members of its size-1 blocks.
func TestExactReadmePairs(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		want []float64
	}{
		{0.5, []float64{1, 1, 1, 1, 1}},
		{0.8, []float64{0.98079478146974541, 1, 0.99997681634720947, 1, 1}},
	} {
		res, err := ExactAnswersFromSet(readmeSet(t, tc.p), 0)
		if err != nil {
			t.Fatalf("p %v: %v", tc.p, err)
		}
		if len(res) != len(tc.want) {
			t.Fatalf("p %v: %d tuples, want %d", tc.p, len(res), len(tc.want))
		}
		for i, tf := range res {
			if math.Abs(tf.Freq-tc.want[i]) > exactTol {
				t.Errorf("p %v tuple %d: exact %.17g, want %.17g", tc.p, i, tf.Freq, tc.want[i])
			}
		}
	}
}

// TestExactDeadline: a one-second timeout stops the exact count of the
// README query's noise-1.0 tuple 1 (921 images), which is not done after
// 10 s unbounded, soon after it expires.
func TestExactDeadline(t *testing.T) {
	set := readmeSet(t, 1.0)
	if n := set.Entries[1].Pair.NumImages(); n != 921 {
		t.Fatalf("tuple 1 has %d images, want 921", n)
	}
	one := &synopsis.Set{Entries: set.Entries[1:2]}
	start := time.Now()
	_, err := ExactAnswersFromSet(one, time.Second)
	if !errors.Is(err, cqaerr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("stopped after %s, want soon after 1s", took)
	}
}
