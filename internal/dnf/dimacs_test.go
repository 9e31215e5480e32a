package dnf

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestParseDIMACS(t *testing.T) {
	input := `c a comment
p dnf 5 3
1 -2 0
3 4
5 0
-1 0
`
	b, err := ParseDIMACS(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if b.NumVars != 5 || len(b.Clauses) != 3 {
		t.Fatalf("parsed %+v", b)
	}
	if len(b.Clauses[1]) != 3 { // multi-line clause 3 4 5
		t.Fatalf("clause 1 = %v", b.Clauses[1])
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	cases := map[string]string{
		"no header":        "1 0\n",
		"bad header":       "p cnf 3 1\n1 0\n",
		"dup header":       "p dnf 2 1\np dnf 2 1\n1 0\n",
		"bad literal":      "p dnf 2 1\nx 0\n",
		"empty clause":     "p dnf 2 1\n0\n",
		"unterminated":     "p dnf 2 1\n1\n",
		"count mismatch":   "p dnf 2 2\n1 0\n",
		"literal range":    "p dnf 2 1\n5 0\n",
		"contradiction":    "p dnf 2 1\n1 -1 0\n",
		"zero vars":        "p dnf 0 1\n1 0\n",
		"missing anything": "",
	}
	for name, input := range cases {
		if _, err := ParseDIMACS(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	b := &Boolean{NumVars: 4, Clauses: [][]int{{1, -2}, {3}, {-1, 4}}}
	var buf strings.Builder
	if err := writeDIMACS(&buf, b); err != nil {
		t.Fatal(err)
	}
	back, err := ParseDIMACS(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVars != b.NumVars || len(back.Clauses) != len(b.Clauses) {
		t.Fatalf("round trip changed formula: %+v", back)
	}
	e1, err := b.CountSatisfying(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	e2, err := back.CountSatisfying(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if e1.Cmp(e2) != 0 {
		t.Fatal("round trip changed semantics")
	}
}

func TestWriteDIMACSInvalid(t *testing.T) {
	if err := writeDIMACS(&strings.Builder{}, &Boolean{}); err == nil {
		t.Fatal("invalid formula written")
	}
}

// FuzzParseDIMACS: the parser must not panic, and accepted formulas must
// round-trip.
func FuzzParseDIMACS(f *testing.F) {
	f.Add("p dnf 3 1\n1 -2 0\n")
	f.Add("c x\np dnf 2 2\n1 0\n-2 0\n")
	f.Add("p dnf 70 1\n1 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		b, err := ParseDIMACS(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf strings.Builder
		if err := writeDIMACS(&buf, b); err != nil {
			t.Fatalf("accepted formula failed to render: %v", err)
		}
		if _, err := ParseDIMACS(strings.NewReader(buf.String())); err != nil {
			t.Fatalf("rendering rejected: %v", err)
		}
	})
}

// writeDIMACS renders the formula in ParseDIMACS's syntax.
func writeDIMACS(w io.Writer, b *Boolean) error {
	if err := b.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p dnf %d %d\n", b.NumVars, len(b.Clauses))
	for _, c := range b.Clauses {
		for _, l := range c {
			fmt.Fprintf(bw, "%d ", l)
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}
