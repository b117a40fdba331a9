package engine

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hint"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenTrace is a pinned single-client trace. One client means one
// producer stream, and a per-producer stream is processed in order by both
// engines, so every cache counter the timeline samples is deterministic.
func goldenTrace() *trace.Trace {
	rng := rand.New(rand.NewSource(42))
	tr := trace.New("golden", 8192)
	tr.Clients = []string{"c0"}
	hints := []hint.ID{
		tr.Dict.Intern(hint.Make("reqtype", "seq")),
		tr.Dict.Intern(hint.Make("reqtype", "rand")),
		tr.Dict.Intern(hint.Make("reqtype", "repl-write", "table", "stock")),
	}
	tr.Reqs = make([]trace.Request, 20000)
	for i := range tr.Reqs {
		r := &tr.Reqs[i]
		r.Hint = hints[rng.Intn(len(hints))]
		if rng.Intn(4) == 0 {
			r.Op = trace.Write
		}
		if rng.Intn(2) == 0 {
			r.Page = uint64(rng.Intn(300))
		} else {
			r.Page = uint64(300 + rng.Intn(6000))
		}
	}
	return tr
}

// TestTimelineGolden replays the pinned trace through a sharded front in
// 4096-request slices, ticking the timeline between slices, with a fully
// scripted pair of clocks, and requires the resulting timeline CSV to be
// bit-identical to the checked-in golden file. This pins the CSV format,
// the column math, and the determinism of the single-producer batch path,
// all at once. Regenerate with:
// go test ./internal/engine -run TimelineGolden -update
func TestTimelineGolden(t *testing.T) {
	tr := goldenTrace()
	s := core.NewSharded(core.Config{Capacity: 512, Window: 2000, TopK: 64}, 4)
	defer s.Close()

	var buf bytes.Buffer
	var lat metrics.Histogram
	tl := metrics.NewTimeline(&buf)
	// Timeline clock: 100ms per row, scripted.
	rows := 0
	tl.SetClock(func() time.Duration { rows++; return time.Duration(rows) * 100 * time.Millisecond })
	CacheTimeline(tl, s, &lat)

	// A slice is no longer than a run on 4 shards (frontRun), so
	// ServeIterator serves each slice whole, as one AccessBatch call, and
	// the timeline ticks between calls. The latency column is scripted, not
	// measured: eight 1ms observations a slice, the count the golden was
	// recorded with (a histogram's quantiles interpolate by count).
	const slice = 4096
	var res sim.Result
	for lo := 0; lo < len(tr.Reqs); lo += slice {
		part := *tr
		part.Reqs = tr.Reqs[lo:min(lo+slice, len(tr.Reqs))]
		r, err := ServeIterator(s, part.Iter(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		res.Reads += r.Reads
		res.ReadHits += r.ReadHits
		for n := 0; n < len(part.Reqs); n += core.DefaultAccessBatch {
			lat.Observe(uint64(time.Millisecond))
		}
		reason := "interval"
		if lo+slice >= len(tr.Reqs) {
			reason = "final"
		}
		if err := tl.Tick(reason); err != nil {
			t.Fatal(err)
		}
	}
	if res.Reads == 0 || res.ReadHits == 0 {
		t.Fatalf("degenerate replay: %+v", res)
	}
	st := s.Stats()
	if st.Requests != uint64(len(tr.Reqs)) {
		t.Fatalf("front served %d requests, want %d", st.Requests, len(tr.Reqs))
	}

	golden := filepath.Join("testdata", "timeline.golden.csv")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("timeline CSV differs from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}
