package obs

import (
	cryptorand "crypto/rand"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// Trace IDs tie one request's spans, access-log line and debug records
// together.

var traceIDFallback atomic.Uint64

// NewTraceID returns a fresh 16-hex-character ID. Randomness comes from
// crypto/rand; if that ever fails the ID degrades to a time+counter
// value, which is still unique within the process.
func NewTraceID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		v := uint64(time.Now().UnixNano()) + traceIDFallback.Add(1)<<32
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// IsValidTraceID reports whether s is acceptable as an externally
// supplied trace ID (an inbound X-Request-ID header): 1-128 characters
// drawn from [A-Za-z0-9._-]. Anything else is rejected so log lines and
// URLs never carry unprintable or oversized identifiers.
func IsValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
