package obs

import (
	"strings"
	"testing"
)

func TestNewTraceID(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 || !IsValidTraceID(id) {
			t.Fatalf("bad trace id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestIsValidTraceID(t *testing.T) {
	valid := []string{"a", "req-42", "A.B_c-9", strings.Repeat("x", 128)}
	for _, s := range valid {
		if !IsValidTraceID(s) {
			t.Errorf("IsValidTraceID(%q) = false, want true", s)
		}
	}
	invalid := []string{"", " ", "a b", "id\n", "héllo", strings.Repeat("x", 129), "{bad}"}
	for _, s := range invalid {
		if IsValidTraceID(s) {
			t.Errorf("IsValidTraceID(%q) = true, want false", s)
		}
	}
}
