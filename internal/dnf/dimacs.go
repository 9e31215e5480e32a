package dnf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseDIMACS reads a boolean DNF formula in DIMACS-style syntax, the
// lingua franca of the DNF-counting benchmarks the ADCS suite [24]
// consumes:
//
//	c a comment
//	p dnf 5 3
//	1 -2 0
//	3 4 5 0
//	-1 0
//
// The header declares the variable and clause counts; each clause is a
// list of signed 1-based literals terminated by 0 and may span lines.
func ParseDIMACS(r io.Reader) (*Boolean, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	b := &Boolean{}
	declaredClauses := -1
	var current []int
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			if b.NumVars != 0 {
				return nil, fmt.Errorf("dnf: line %d: duplicate problem line", lineNo)
			}
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "dnf" {
				return nil, fmt.Errorf("dnf: line %d: want 'p dnf <vars> <clauses>', got %q", lineNo, line)
			}
			nv, err1 := strconv.Atoi(fields[2])
			nc, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || nv <= 0 || nc <= 0 {
				return nil, fmt.Errorf("dnf: line %d: bad problem line %q", lineNo, line)
			}
			b.NumVars = nv
			declaredClauses = nc
			continue
		}
		if b.NumVars == 0 {
			return nil, fmt.Errorf("dnf: line %d: clause before problem line", lineNo)
		}
		for _, tok := range strings.Fields(line) {
			lit, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("dnf: line %d: bad literal %q", lineNo, tok)
			}
			if lit == 0 {
				if len(current) == 0 {
					return nil, fmt.Errorf("dnf: line %d: empty clause", lineNo)
				}
				b.Clauses = append(b.Clauses, current)
				current = nil
				continue
			}
			current = append(current, lit)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(current) > 0 {
		return nil, fmt.Errorf("dnf: final clause not terminated by 0")
	}
	if b.NumVars == 0 {
		return nil, fmt.Errorf("dnf: missing problem line")
	}
	if declaredClauses >= 0 && len(b.Clauses) != declaredClauses {
		return nil, fmt.Errorf("dnf: header declares %d clauses, found %d", declaredClauses, len(b.Clauses))
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}
