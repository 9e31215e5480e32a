package obs

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a race-safe injectable clock for driving slot expiry.
type fakeClock struct {
	ns atomic.Int64
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// useFakeClock installs a fake package clock reading start and restores
// the real one when the test ends.
func useFakeClock(t *testing.T, start time.Time) *fakeClock {
	c := &fakeClock{}
	c.ns.Store(start.UnixNano())
	SetNowFunc(c.Now)
	t.Cleanup(func() { SetNowFunc(nil) })
	return c
}

func TestWindowedHistogramQuantilesAndDecay(t *testing.T) {
	r := NewRegistry()
	wh := r.WindowedHistogram("req_seconds", []time.Duration{time.Minute, 5 * time.Minute})
	clock := useFakeClock(t, time.Unix(1_000_000, 0))

	for i := 0; i < 100; i++ {
		wh.Observe(0.1)
	}
	for _, win := range wh.Windows() {
		s := wh.WindowSnapshot(win)
		if s.Count != 100 {
			t.Fatalf("window %v count = %d, want 100", win, s.Count)
		}
		if p := s.Quantile(0.99); p < 0.08 || p > 0.13 {
			t.Fatalf("window %v p99 = %v, want ~0.1", win, p)
		}
	}

	// After 2 minutes of silence the 1m window is empty but the 5m window
	// still holds the observations; the cumulative series never forgets.
	clock.Advance(2 * time.Minute)
	if s := wh.WindowSnapshot(time.Minute); s.Count != 0 || s.Quantile(0.99) != 0 {
		t.Fatalf("1m window after 2m idle: count=%d p99=%v, want drained", s.Count, s.Quantile(0.99))
	}
	if s := wh.WindowSnapshot(5 * time.Minute); s.Count != 100 {
		t.Fatalf("5m window after 2m idle: count=%d, want 100", s.Count)
	}
	if s := wh.hist.Snapshot(); s.Count != 100 {
		t.Fatalf("cumulative count = %d, want 100", s.Count)
	}

	// Past the longest window everything drains.
	clock.Advance(5 * time.Minute)
	if s := wh.WindowSnapshot(5 * time.Minute); s.Count != 0 {
		t.Fatalf("5m window after 7m idle: count=%d, want 0", s.Count)
	}

	// New traffic repopulates the (recycled) slots.
	wh.Observe(2.0)
	if s := wh.WindowSnapshot(time.Minute); s.Count != 1 || s.Min != 2.0 {
		t.Fatalf("window after fresh observe: %+v", s)
	}
}

func TestWindowedHistogramSlidesAcrossSlots(t *testing.T) {
	r := NewRegistry()
	wh := r.WindowedHistogram("lat", []time.Duration{time.Minute})
	clock := useFakeClock(t, time.Unix(5_000, 0))

	wh.Observe(1.0)
	clock.Advance(30 * time.Second)
	wh.Observe(3.0)
	if s := wh.WindowSnapshot(time.Minute); s.Count != 2 || s.Min != 1.0 || s.Max != 3.0 {
		t.Fatalf("both slots should be in window: %+v", s)
	}
	// Another 45s: the first observation (75s old) ages out, the second
	// (45s old) stays.
	clock.Advance(45 * time.Second)
	if s := wh.WindowSnapshot(time.Minute); s.Count != 1 || s.Min != 3.0 {
		t.Fatalf("old slot should have aged out: %+v", s)
	}
}

func TestWindowedHistogramDefaultsAndReuse(t *testing.T) {
	r := NewRegistry()
	wh := r.WindowedHistogram("x_seconds", nil)
	ws := wh.Windows()
	if len(ws) != 2 || ws[0] != time.Minute || ws[1] != 5*time.Minute {
		t.Fatalf("default windows = %v", ws)
	}
	// A second registration returns the same ring regardless of windows,
	// and the plain Histogram handle aliases the cumulative part.
	if again := r.WindowedHistogram("x_seconds", []time.Duration{time.Hour}); again != wh {
		t.Fatal("second WindowedHistogram call did not reuse the ring")
	}
	if r.Histogram("x_seconds") != wh.hist {
		t.Fatal("Histogram() does not alias the windowed cumulative histogram")
	}
}

func TestWindowedHistogramExportForms(t *testing.T) {
	r := NewRegistry()
	wh := r.WindowedHistogram("req_seconds", nil, L("endpoint", "/v1/estimate"))
	wh.Observe(0.25)
	r.Histogram("plain_seconds").Observe(1) // no window ring

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"# TYPE req_seconds_window gauge",
		"# TYPE req_seconds_window_count gauge",
		`req_seconds_window{endpoint="/v1/estimate",quantile="0.99",window="1m"}`,
		`req_seconds_window{endpoint="/v1/estimate",quantile="0.5",window="5m"}`,
		`req_seconds_window_count{endpoint="/v1/estimate",window="1m"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus export missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "plain_seconds_window") {
		t.Error("plain histogram grew window series")
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"window": "1m"`) {
		t.Errorf("JSON export missing windowed series:\n%s", js.String())
	}
}

// TestWindowedHistogramConcurrent drives observes, snapshots and full
// registry exports concurrently; run under -race it checks the locking.
func TestWindowedHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	wh := r.WindowedHistogram("conc_seconds", []time.Duration{100 * time.Millisecond, time.Second})
	clock := useFakeClock(t, time.Unix(77, 0))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				wh.Observe(float64(g+1) * 0.001)
				if i%100 == 0 {
					clock.Advance(10 * time.Millisecond)
				}
			}
		}(g)
	}
	exporterDone := make(chan struct{})
	go func() {
		defer close(exporterDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			wh.WindowSnapshot(time.Second)
			r.WritePrometheus(&bytes.Buffer{})
			r.WriteJSON(&bytes.Buffer{})
		}
	}()
	wg.Wait()
	close(stop)
	<-exporterDone

	if got := wh.hist.Snapshot().Count; got != 8000 {
		t.Fatalf("cumulative count = %d, want 8000", got)
	}
}

// An idle windowed histogram must export well-formed zero series: no
// NaNs, count 0, quantiles 0 — scrape targets exist before traffic.
func TestWindowedHistogramEmptyWindowExport(t *testing.T) {
	r := NewRegistry()
	wh := r.WindowedHistogram("idle_seconds", nil, L("endpoint", "/x"))
	for _, win := range wh.Windows() {
		s := wh.WindowSnapshot(win)
		if s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 {
			t.Fatalf("idle snapshot for %v = %+v, want zero", win, s)
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if v := s.Quantile(q); v != 0 {
				t.Fatalf("idle q%v = %v, want 0", q, v)
			}
		}
	}
	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		`idle_seconds_window{endpoint="/x",quantile="0.99",window="1m"} 0`,
		`idle_seconds_window_count{endpoint="/x",window="1m"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("idle export missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "NaN") {
		t.Errorf("idle export contains NaN:\n%s", text)
	}
}

// Asking for a window shorter than one ring slot degrades to the current
// slot rather than an empty (or panicking) read; and construction with a
// sub-millisecond window clamps the slot duration instead of dividing to
// zero.
func TestWindowedHistogramWindowShorterThanSlot(t *testing.T) {
	r := NewRegistry()
	// 1m window → 5s slots; a 1s query is below one slot.
	wh := r.WindowedHistogram("short_seconds", []time.Duration{time.Minute})
	clock := useFakeClock(t, time.Unix(9_000, 0))
	wh.Observe(0.5)
	if s := wh.WindowSnapshot(time.Second); s.Count != 1 || s.Min != 0.5 {
		t.Fatalf("sub-slot window snapshot = %+v, want the current slot", s)
	}
	// Advance past the current slot: the sub-slot view drains with it.
	clock.Advance(10 * time.Second)
	if s := wh.WindowSnapshot(time.Second); s.Count != 0 {
		t.Fatalf("sub-slot window after slot expiry = %+v, want empty", s)
	}

	// A 5ms window divides to a sub-millisecond slot; the constructor
	// clamps to 1ms and the ring still works.
	tiny := r.WindowedHistogram("tiny_seconds", []time.Duration{5 * time.Millisecond})
	tclock := useFakeClock(t, time.Unix(10_000, 0))
	tiny.Observe(1)
	if s := tiny.WindowSnapshot(5 * time.Millisecond); s.Count != 1 {
		t.Fatalf("tiny-window snapshot = %+v, want count 1", s)
	}
	tclock.Advance(20 * time.Millisecond)
	if s := tiny.WindowSnapshot(5 * time.Millisecond); s.Count != 0 {
		t.Fatalf("tiny-window after expiry = %+v, want empty", s)
	}
}

// A clock that steps backwards (NTP correction, test reuse of a fake
// clock) must not panic, corrupt counts, or resurrect stale slots: the
// earlier observation lands in a past slot that a backwards read still
// finds, and moving forward again recovers.
func TestWindowedHistogramClockBackwards(t *testing.T) {
	r := NewRegistry()
	wh := r.WindowedHistogram("back_seconds", []time.Duration{time.Minute})
	clock := useFakeClock(t, time.Unix(20_000, 0))

	wh.Observe(1.0)
	clock.Advance(-30 * time.Second)
	wh.Observe(2.0) // lands in an earlier slot than the first observation
	if s := wh.WindowSnapshot(time.Minute); s.Count != 1 || s.Min != 2.0 {
		t.Fatalf("backwards-time snapshot = %+v, want only the backdated point", s)
	}
	// Forward again: both slots are within the minute once more.
	clock.Advance(30 * time.Second)
	if s := wh.WindowSnapshot(time.Minute); s.Count != 2 || s.Min != 1.0 || s.Max != 2.0 {
		t.Fatalf("recovered snapshot = %+v, want both points", s)
	}
	if got := wh.hist.Snapshot().Count; got != 2 {
		t.Fatalf("cumulative count = %d, want 2", got)
	}
	// A pre-epoch clock produces negative slot indices; reads and writes
	// must still map into the ring.
	clock.ns.Store(time.Unix(-3600, 0).UnixNano())
	wh.Observe(3.0)
	if s := wh.WindowSnapshot(time.Minute); s.Count != 1 || s.Min != 3.0 {
		t.Fatalf("negative-index snapshot = %+v, want the fresh point", s)
	}
}

func TestFormatWindow(t *testing.T) {
	cases := map[time.Duration]string{
		time.Minute:            "1m",
		5 * time.Minute:        "5m",
		time.Hour:              "1h",
		30 * time.Second:       "30s",
		90 * time.Second:       "1m30s",
		250 * time.Millisecond: "250ms",
	}
	for d, want := range cases {
		if got := FormatWindow(d); got != want {
			t.Errorf("FormatWindow(%v) = %q, want %q", d, got, want)
		}
	}
}
