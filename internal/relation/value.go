// Package relation implements the relational substrate of the paper:
// schemas, primary keys of the form key(R) = {1,...,m}, facts, databases,
// key values, blocks (block_Σ(α, D)), and consistency (D |= Σ).
//
// The package is deliberately self-contained and in-memory; the paper's
// PostgreSQL instance is replaced by this engine plus the synopsis builder
// in internal/synopsis (see DESIGN.md §1 for why the substitution is
// faithful).
package relation

import (
	"fmt"
	"strconv"
)

// Value is a database constant. Non-negative integers are represented
// directly; strings (and out-of-range integers) are interned by a Dict and
// represented as negative values. Two Values drawn from the same Dict are
// equal iff they denote the same constant.
type Value int64

// maxDirectInt is the largest integer stored inline in a Value. Larger
// integers fall back to string interning, so every int64 round-trips.
const maxDirectInt = int64(1)<<61 - 1

// Dict interns string constants so Values stay comparable machine words.
// The zero Dict is not ready to use; call NewDict.
type Dict struct {
	byStr map[string]Value
	strs  []string
}

// NewDict returns an empty interning dictionary.
func NewDict() *Dict {
	return &Dict{byStr: make(map[string]Value)}
}

// String interns s and returns its Value.
func (d *Dict) String(s string) Value {
	if v, ok := d.byStr[s]; ok {
		return v
	}
	v := Value(-1 - int64(len(d.strs)))
	d.strs = append(d.strs, s)
	d.byStr[s] = v
	return v
}

// Int returns the Value of integer i.
func (d *Dict) Int(i int64) Value {
	if i >= 0 && i <= maxDirectInt {
		return Value(i)
	}
	return d.String(strconv.FormatInt(i, 10))
}

// Of converts a Go value (int, int64, string, or Value) into a Value.
func (d *Dict) Of(x any) (Value, error) {
	switch t := x.(type) {
	case Value:
		return t, nil
	case int:
		return d.Int(int64(t)), nil
	case int32:
		return d.Int(int64(t)), nil
	case int64:
		return d.Int(t), nil
	case string:
		return d.String(t), nil
	default:
		return 0, fmt.Errorf("relation: unsupported constant type %T", x)
	}
}

// Render formats a Value for display.
func (d *Dict) Render(v Value) string {
	if v >= 0 {
		return strconv.FormatInt(int64(v), 10)
	}
	idx := int(-1 - int64(v))
	if d == nil || idx >= len(d.strs) {
		return fmt.Sprintf("?str%d", idx)
	}
	return d.strs[idx]
}

// Tuple is an ordered list of constants.
type Tuple []Value

// Equal reports whether two tuples agree position-wise.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Less orders tuples lexicographically; used for deterministic output.
func (t Tuple) Less(u Tuple) bool {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if t[i] != u[i] {
			return t[i] < u[i]
		}
	}
	return len(t) < len(u)
}
