package core

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

// These tests pin the observability contract on top of the zero-allocation
// one: the request path stays allocation-free with metrics fully engaged —
// per-batch histogram observations, snapshot-counter reads, and timeline
// ticks sampling the front — exactly how the network server instruments it.

// TestAccessInstrumentedAllocs wraps the per-request path with a
// service-time histogram and a registry-backed counter.
func TestAccessInstrumentedAllocs(t *testing.T) {
	s := NewSharded(Config{Capacity: 512, Window: 2000, TopK: 64}, 4)
	reqs := shardedTrace(200000, 99)
	for _, r := range reqs {
		s.Access(r)
	}
	var lat metrics.Histogram
	var served metrics.Counter
	i := 0
	if avg := testing.AllocsPerRun(20000, func() {
		start := time.Now()
		s.Access(reqs[i%len(reqs)])
		lat.Observe(uint64(time.Since(start)))
		served.Inc()
		i++
	}); avg != 0 {
		t.Errorf("instrumented Access allocates %v allocs/op, want 0", avg)
	}
	if served.Value() == 0 || lat.Count() != served.Value() {
		t.Fatalf("instruments did not record: served=%d observed=%d", served.Value(), lat.Count())
	}
}

// TestAccessBatchInstrumentedAllocs is the batch path under the server's
// full instrumentation: batch-latency histogram, stats snapshot, and a
// timeline tick per batch.
func TestAccessBatchInstrumentedAllocs(t *testing.T) {
	s := NewSharded(Config{Capacity: 512, Window: 2000, TopK: 64}, 4)
	defer s.Close()
	p := s.NewProducer()
	defer p.Close()
	reqs := shardedTrace(200000, 99)
	hits := make([]bool, DefaultAccessBatch)

	var lat metrics.Histogram
	tl := metrics.NewTimeline(discardWriter{})
	tl.Delta("requests", func() float64 { return float64(s.Stats().Requests) })
	tl.RatioOfDeltas("hit_ratio",
		func() float64 { return float64(s.Stats().ReadHits) },
		func() float64 { return float64(s.Stats().Reads) })
	tl.Value("outq", func() float64 { return float64(s.OutqueueLen()) })
	tl.Quantile("batch_p99_ns", &lat, 0.99)
	clock := time.Duration(0)
	tl.SetClock(func() time.Duration { clock += time.Millisecond; return clock })

	batch := func(off int) {
		end := off + DefaultAccessBatch
		if end > len(reqs) {
			end = len(reqs)
		}
		start := time.Now()
		p.AccessBatch(reqs[off:end], hits)
		lat.Observe(uint64(time.Since(start)))
	}
	for off := 0; off < len(reqs); off += DefaultAccessBatch {
		batch(off)
	}
	if err := tl.Tick("interval"); err != nil {
		t.Fatal(err)
	}
	off := 0
	if avg := testing.AllocsPerRun(200, func() {
		batch(off)
		if err := tl.Tick("interval"); err != nil {
			t.Fatal(err)
		}
		off = (off + DefaultAccessBatch) % (len(reqs) - DefaultAccessBatch)
	}); avg != 0 {
		t.Errorf("instrumented AccessBatch allocates %v allocs per batch, want 0", avg)
	}
}

// TestShardedEvictions checks eviction accounting against first
// principles: a capacity-bounded cache fed more distinct pages than it can
// hold, with re-references so admits carry enough priority to displace
// victims, must report evictions, and the per-shard counts must sum to the
// front's total.
func TestShardedEvictions(t *testing.T) {
	s := NewSharded(Config{Capacity: 128, Window: 500, TopK: 32}, 4)
	defer s.Close()
	reqs := shardedTrace(50000, 7)
	p := s.NewProducer()
	defer p.Close()
	hits := make([]bool, len(reqs))
	p.AccessBatch(reqs, hits)
	st := s.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions recorded over %d requests at capacity %d", len(reqs), s.Capacity())
	}
	var sum uint64
	for i := 0; i < s.Shards(); i++ {
		sum += s.ShardStats(i).Evictions
	}
	if sum != st.Evictions {
		t.Errorf("shard evictions sum %d != front total %d", sum, st.Evictions)
	}
}

// TestShardStatsSum checks that the per-shard view tiles the front's
// aggregate exactly once the engine is quiescent.
func TestShardStatsSum(t *testing.T) {
	s := NewSharded(Config{Capacity: 256, Window: 1000, TopK: 32}, 4)
	defer s.Close()
	p := s.NewProducer()
	defer p.Close()
	reqs := shardedTrace(20000, 3)
	hits := make([]bool, len(reqs))
	p.AccessBatch(reqs, hits)

	want := s.Stats()
	var got Stats
	for i := 0; i < s.Shards(); i++ {
		ss := s.ShardStats(i)
		got.Reads += ss.Reads
		got.ReadHits += ss.ReadHits
		got.Writes += ss.Writes
		got.Evictions += ss.Evictions
		got.Len += ss.Len
		got.OutqueueLen += ss.OutqueueLen
	}
	if got.Reads != want.Reads || got.ReadHits != want.ReadHits || got.Writes != want.Writes ||
		got.Evictions != want.Evictions || got.Len != want.Len ||
		got.OutqueueLen != want.OutqueueLen {
		t.Fatalf("shard stats do not tile the aggregate:\n  sum:   %+v\n  front: %+v", got, want)
	}
	if want.Reads+want.Writes != uint64(len(reqs)) {
		t.Fatalf("request count %d+%d != %d", want.Reads, want.Writes, len(reqs))
	}
}

// TestTrackedHintSets sanity-checks the observability read. The count
// covers the current window only (it resets on rotation), so the request
// count deliberately lands mid-window.
func TestTrackedHintSets(t *testing.T) {
	s := NewSharded(Config{Capacity: 256, Window: 1000, TopK: 32}, 4)
	defer s.Close()
	for _, r := range shardedTrace(5500, 11) {
		s.Access(r)
	}
	if n := s.TrackedHintSets(); n <= 0 {
		t.Errorf("TrackedHintSets = %d, want > 0", n)
	}
}

// discardWriter is a trivial sink for timeline rows in the alloc loops.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
