package core

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestAccessSteadyStateAllocs pins the zero-allocation contract of the
// request path: after the cache has filled its capacity, outqueue and
// statistics structures (the page table stops growing, the rest recycles
// through freelists), processing a request allocates nothing — including
// across window rotations and Space-Saving counter churn (TopK set).
func TestAccessSteadyStateAllocs(t *testing.T) {
	c := New(Config{Capacity: 512, Window: 2000, TopK: 64})
	reqs := shardedTrace(200000, 99)
	for _, r := range reqs {
		c.Access(r)
	}
	i := 0
	if avg := testing.AllocsPerRun(20000, func() {
		c.Access(reqs[i%len(reqs)])
		i++
	}); avg != 0 {
		t.Errorf("steady-state Access allocates %v allocs/op, want 0", avg)
	}
}

// TestAccessBatchSteadyStateAllocs is the same contract for a front's batch
// path: a warm producer running DefaultAccessBatch-sized batches through
// the shards — routing pass, frame hand-off, warm pass, scatter —
// allocates nothing per batch.
func TestAccessBatchSteadyStateAllocs(t *testing.T) {
	s := NewSharded(Config{Capacity: 512, Window: 2000, TopK: 64}, 4)
	defer s.Close()
	p := s.NewProducer()
	defer p.Close()
	reqs := shardedTrace(200000, 99)
	hits := make([]bool, DefaultAccessBatch)
	batch := func(off int) {
		end := off + DefaultAccessBatch
		if end > len(reqs) {
			end = len(reqs)
		}
		p.AccessBatch(reqs[off:end], hits)
	}
	for off := 0; off < len(reqs); off += DefaultAccessBatch {
		batch(off)
	}
	off := 0
	if avg := testing.AllocsPerRun(200, func() {
		batch(off)
		off = (off + DefaultAccessBatch) % (len(reqs) - DefaultAccessBatch)
	}); avg != 0 {
		t.Errorf("steady-state AccessBatch allocates %v allocs per batch, want 0", avg)
	}
}

// TestProducerSizesFramesOnce: a fresh producer's first AccessBatch of the
// front's VisitBatch on a warm 8-shard front allocates at most its frames'
// request and index slices, once each, rather than growing them by append
// from empty (about 20 allocations a shard).
func TestProducerSizesFramesOnce(t *testing.T) {
	const shards, runs = 8, 20
	s := NewSharded(Config{Capacity: 512, Window: 2000, TopK: 64}, shards)
	defer s.Close()
	n := s.VisitBatch()
	reqs := shardedTrace(200000, 99)
	hits := make([]bool, n)
	warm := s.NewProducer()
	for off := 0; off+n <= len(reqs); off += n {
		warm.AccessBatch(reqs[off:off+n], hits)
	}
	prods := make([]*Producer, runs+1) // AllocsPerRun calls once more to warm up
	for i := range prods {
		prods[i] = s.NewProducer()
	}
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		off := i * n % (len(reqs) - n)
		prods[i].AccessBatch(reqs[off:off+n], hits)
		i++
	})
	if avg > 2*shards {
		t.Errorf("a fresh producer's first %d-request AccessBatch allocates %v times, want at most %d (two slices a shard)", n, avg, 2*shards)
	}
}

// TestAccessBatchGlobalAllocs isolates the shared learner's per-frame part
// of the batch contract: once every tap's top-k window has grown to its k
// counters — in the warm-up — leasing, counting and releasing allocate
// nothing. W is larger than the measured run, so no rotation falls inside
// it and no batch is cut; TestAccessBatchSteadyStateAllocs covers both.
func TestAccessBatchGlobalAllocs(t *testing.T) {
	s := NewSharded(Config{Capacity: 512, Window: 1 << 30, TopK: 64}, 4)
	defer s.Close()
	p := s.NewProducer()
	defer p.Close()
	reqs := shardedTrace(200000, 99)
	hits := make([]bool, DefaultAccessBatch)
	batch := func(off int) {
		p.AccessBatch(reqs[off:min(off+DefaultAccessBatch, len(reqs))], hits)
	}
	for off := 0; off < len(reqs); off += DefaultAccessBatch {
		batch(off)
	}
	off := 0
	if avg := testing.AllocsPerRun(200, func() {
		batch(off)
		off = (off + DefaultAccessBatch) % (len(reqs) - DefaultAccessBatch)
	}); avg != 0 {
		t.Errorf("steady-state AccessBatch inside one window allocates %v allocs per batch, want 0", avg)
	}
	if s.Windows() != 0 || s.TrackedHintSets() == 0 {
		t.Errorf("windows=%d tracked=%d: the run was meant to stay inside one non-empty window", s.Windows(), s.TrackedHintSets())
	}
}

// TestFootprintFollowsRecords pins that nothing is sized from the
// configuration: a million-page cache that has seen 1 000 pages holds 1 000
// records in a table to match, not space for the ~6M records it may one day
// hold. The table grows by half when its load would pass 4/5, so right
// after any growth its load is at least 8/15: at most 32 B / (8/15) = 60
// bytes per record, counting the probe slots.
func TestFootprintFollowsRecords(t *testing.T) {
	if size := unsafe.Sizeof(pageEntry{}); size != 32 {
		t.Fatalf("a page record is %d bytes, want 32", size)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(Config{Capacity: 1 << 20})
	grows := 0
	for p := uint64(0); p < 1000; p++ {
		slots := len(c.ents)
		c.Access(rd(p, hintA))
		if len(c.ents) == slots {
			continue
		}
		grows++
		if records, bytes := c.Len()+c.OutqueueLen(), (len(c.ents)-1)*32; bytes > 60*records {
			t.Errorf("after growing to %d slots: %d bytes for %d records, more than 60 each", len(c.ents)-1, bytes, records)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained >= 1<<20 {
		t.Errorf("cache retains %d bytes after 1000 requests, want < 1 MB", retained)
	}
	if c.Len() != 1000 || grows < 5 {
		t.Errorf("Len = %d after %d growths, want 1000 after several", c.Len(), grows)
	}
	runtime.KeepAlive(c)
}

// TestRecordLimit: table positions are uint32 with 0 the nil record, and
// the load stays at most 4/5, so a cache indexes at most 4/5 of 2^32-1
// records. A configuration that could hold more is refused up front, with a
// message naming the limit, instead of corrupting links later.
func TestRecordLimit(t *testing.T) {
	const limit = (1<<32 - 1) * 4 / 5
	New(Config{Capacity: 1 << 31, Noutq: limit - 1<<31}) // exactly the limit: fine, and allocates nothing yet
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Capacity+Noutq") {
			t.Errorf("panic %q, want one naming Capacity+Noutq", msg)
		}
	}()
	New(Config{Capacity: 1 << 31, Noutq: limit - 1<<31 + 1})
	t.Error("New accepted more records than it can index")
}
