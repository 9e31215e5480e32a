package obs

import (
	"sync/atomic"
	"time"
)

// The package clock: time-dependent state that needs deterministic tests
// (the server's quota token buckets, the rings of WindowedHistogram)
// reads obs.Now() instead of time.Now(), and tests swap the source with
// SetNowFunc.

// nowFunc holds the process-wide clock as *func() time.Time; nil means
// time.Now.
var nowFunc atomic.Pointer[func() time.Time]

// Now returns the current time from the package clock — time.Now
// unless a test installed a fake via SetNowFunc.
func Now() time.Time {
	if f := nowFunc.Load(); f != nil {
		return (*f)()
	}
	return time.Now()
}

// SetNowFunc replaces the package clock; nil restores time.Now.
// Test-only: production code never calls this. Tests that install a
// fake clock must restore it (defer obs.SetNowFunc(nil)) and must not
// run in parallel with tests that read real time through obs.Now.
func SetNowFunc(f func() time.Time) {
	if f == nil {
		nowFunc.Store(nil)
		return
	}
	nowFunc.Store(&f)
}
