package metrics

import (
	"io"
	"testing"
	"time"
)

// The instruments guard the sharded front's zero-allocation request path,
// so their own hot operations must not allocate either.

func TestInstrumentAllocs(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(3)
		c.Inc()
		g.Set(5)
		g.Add(-1)
		h.Observe(12345)
	}); n != 0 {
		t.Fatalf("instrument ops allocate %.1f allocs/op, want 0", n)
	}
}

func TestSnapshotQuantileAllocs(t *testing.T) {
	var h Histogram
	for i := uint64(0); i < 1000; i++ {
		h.Observe(i * 37)
	}
	var prev, cur HistSnapshot
	h.Snapshot(&prev)
	if n := testing.AllocsPerRun(100, func() {
		h.Snapshot(&cur)
		cur.Sub(&prev)
		cur.Quantile(0.99)
	}); n != 0 {
		t.Fatalf("snapshot+quantile allocates %.1f allocs/op, want 0", n)
	}
}

// TestTimelineTickAllocs: after the first row (header + buffer growth),
// steady-state ticks reuse the row buffer and allocate nothing.
func TestTimelineTickAllocs(t *testing.T) {
	tl := NewTimeline(io.Discard)
	var c Counter
	var g Gauge
	var h Histogram
	tl.Value("gauge", func() float64 { return float64(g.Value()) })
	tl.Delta("delta", func() float64 { return float64(c.Value()) })
	tl.Rate("rate", func() float64 { return float64(c.Value()) })
	tl.RatioOfDeltas("ratio", func() float64 { return float64(c.Value()) }, func() float64 { return float64(c.Value()) })
	tl.Quantile("p99", &h, 0.99)
	clock := time.Duration(0)
	tl.SetClock(func() time.Duration { clock += time.Second; return clock })
	for i := uint64(0); i < 500; i++ {
		h.Observe(i)
	}
	if err := tl.Tick("interval"); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		c.Add(17)
		g.Set(int64(c.Value()))
		h.Observe(c.Value())
		if err := tl.Tick("interval"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state Tick allocates %.1f allocs/op, want 0", n)
	}
}
