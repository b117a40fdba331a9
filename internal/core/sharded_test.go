package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hint"
	"repro/internal/trace"
)

// shardedTrace builds a seeded synthetic trace with enough distinct pages
// and hint sets to populate every shard.
func shardedTrace(n int, seed int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	d := hint.NewDict()
	hints := []hint.ID{
		d.Intern(hint.Make("reqtype", "seq")),
		d.Intern(hint.Make("reqtype", "rand")),
		d.Intern(hint.Make("reqtype", "repl-write", "table", "stock")),
	}
	reqs := make([]trace.Request, n)
	for i := range reqs {
		op := trace.Read
		if rng.Intn(4) == 0 {
			op = trace.Write
		}
		reqs[i] = trace.Request{
			// Zipf-ish reuse: half the requests revisit a small hot set.
			Page: uint64(rng.Intn(200)),
			Hint: hints[rng.Intn(len(hints))],
			Op:   op,
		}
		if rng.Intn(2) == 0 {
			reqs[i].Page = uint64(200 + rng.Intn(5000))
		}
	}
	return reqs
}

// TestShardedMatchesPartitionedCaches drives a Sharded front request by
// request and checks that every hit/miss decision — and therefore the
// aggregate hit count — matches the reference: plain Caches with identical
// configurations on taps of one shared learner, each run over its shard's
// request subsequence.
func TestShardedMatchesPartitionedCaches(t *testing.T) {
	const shards = 4
	cfg := Config{Capacity: 64, Window: 500, TopK: 0}
	s := NewSharded(cfg, shards)
	ref := newReference(s)

	var wantHits, gotHits uint64
	for i, r := range shardedTrace(20000, 42) {
		got := s.Access(r)
		want := ref.Access(r)
		if got != want {
			t.Fatalf("request %d (page %d): Sharded hit=%v, reference hit=%v", i, r.Page, got, want)
		}
		if got && r.Op == trace.Read {
			gotHits++
		}
		if want && r.Op == trace.Read {
			wantHits++
		}
	}
	if gotHits != wantHits {
		t.Fatalf("aggregate hits: Sharded %d, reference %d", gotHits, wantHits)
	}
	if gotHits == 0 {
		t.Fatal("trace produced no hits; test is vacuous")
	}

	var plainLen int
	for _, c := range ref.caches {
		plainLen += c.Len()
	}
	if s.Len() != plainLen {
		t.Errorf("Len: Sharded %d, reference sum %d", s.Len(), plainLen)
	}
	if s.Windows() != ref.g.Windows() || s.Windows() != 20000/500 {
		t.Errorf("Windows: Sharded %d, reference %d, want %d", s.Windows(), ref.g.Windows(), 20000/500)
	}
}

// TestShardedSplit checks the capacity/outqueue split accounting, and that
// the window is not split: every shard's cache is configured with the
// front's W, which its tap's shared learner rotates on.
func TestShardedSplit(t *testing.T) {
	cfg := Config{Capacity: 10, Window: 9000}
	s := NewSharded(cfg, 3)
	if s.Capacity() != 10 {
		t.Errorf("Capacity = %d, want 10", s.Capacity())
	}
	var caps, outqs int
	for i := range s.shards {
		sub := s.shards[i].c.Config()
		caps += sub.Capacity
		outqs += sub.Noutq
		if sub.Window != 9000 {
			t.Errorf("shard %d window = %d, want 9000", i, sub.Window)
		}
	}
	if caps != 10 {
		t.Errorf("shard capacities sum to %d, want 10", caps)
	}
	if outqs != 50 { // default 5 entries per cache page, split like capacity
		t.Errorf("shard outqueues sum to %d, want 50", outqs)
	}
	if got := NewSharded(Config{Capacity: 4}, 1).Name(); got != "CLIC" {
		t.Errorf("1-shard Name = %q", got)
	}
	if got := NewSharded(Config{Capacity: 4}, 8).Name(); got != "CLIC/8" {
		t.Errorf("8-shard Name = %q", got)
	}
}

// TestShardedStableMapping checks ShardFor over fronts of 1, 2, 3, 4, 8
// and 12 shards, on 96,000 pages of a dense range and of strides 2, 8, 64,
// 987 and 4,096:
//   - every page maps into [0, n), and to the same shard every time;
//   - no shard's count is off its even share by more than 0.1 % (2 % at
//     stride 987: 987·phi is within 0.00045 of a whole number of 2⁶⁴, so
//     each shard takes runs of about 2,200/n consecutive pages and the
//     last, partial run tips the count by up to one run; mix64(page) % n,
//     whose subsets are random, is off by about 1 % at any stride);
//   - a 1-shard front's table multiplier is a plain cache's, so its table
//     is a plain cache's table;
//   - placement is nested: with m slots a shard, page p's home in shard
//     ShardFor(p)'s table is its home in a plain table of n·m slots, less
//     ShardFor(p)·m.
func TestShardedStableMapping(t *testing.T) {
	const pages, slots = 96_000, 1000
	if got, want := NewSharded(Config{Capacity: 16}, 1).shards[0].c.mult, New(Config{Capacity: 16}).mult; got != want {
		t.Errorf("1-shard front's table multiplier %#x, plain cache's %#x", got, want)
	}
	for _, stride := range []uint64{1, 2, 8, 64, 987, 4096} {
		tol := 0.001
		if stride == 987 {
			tol = 0.02
		}
		for _, n := range []int{1, 2, 3, 4, 8, 12} {
			s := NewSharded(Config{Capacity: 16}, n)
			seen := make([]int, n)
			for k := uint64(0); k < pages; k++ {
				p := k * stride
				a, b := s.ShardFor(p), s.ShardFor(p)
				if a < 0 || a >= n || a != b {
					t.Fatalf("stride %d, %d shards: page %d mapped to %d then %d", stride, n, p, a, b)
				}
				seen[a]++
				if got, want := home(p, phi, uint32(n*slots)), uint32(a*slots)+home(p, s.shards[a].c.mult, slots); got != want {
					t.Fatalf("stride %d, %d shards: page %d homes at %d of shard %d's table, slot %d of one table of %d slots",
						stride, n, p, want-uint32(a*slots), a, got, n*slots)
				}
			}
			for i, c := range seen {
				if off := math.Abs(float64(c*n)/pages - 1); off > tol {
					t.Errorf("stride %d, %d shards: shard %d holds %d pages, %.2f %% off the even %d", stride, n, i, c, 100*off, pages/n)
				}
			}
		}
	}
}

// TestShardedStats drives a front serially and checks the snapshot against
// independently tallied counts and the lock-taking accessors.
func TestShardedStats(t *testing.T) {
	s := NewSharded(Config{Capacity: 64, Window: 500}, 4)
	var reads, hits, writes uint64
	for _, r := range shardedTrace(20000, 7) {
		hit := s.Access(r)
		if r.Op == trace.Read {
			reads++
			if hit {
				hits++
			}
		} else {
			writes++
		}
	}
	st := s.Stats()
	if st.Reads != reads || st.ReadHits != hits || st.Writes != writes {
		t.Errorf("Stats = reads %d hits %d writes %d, want %d %d %d",
			st.Reads, st.ReadHits, st.Writes, reads, hits, writes)
	}
	if st.Requests != reads+writes {
		t.Errorf("Requests = %d, want %d", st.Requests, reads+writes)
	}
	if st.ReadMisses != reads-hits {
		t.Errorf("ReadMisses = %d, want %d", st.ReadMisses, reads-hits)
	}
	if st.Len != s.Len() || st.OutqueueLen != s.OutqueueLen() || st.Windows != s.Windows() {
		t.Errorf("Stats structural fields (%d, %d, %d) disagree with accessors (%d, %d, %d)",
			st.Len, st.OutqueueLen, st.Windows, s.Len(), s.OutqueueLen(), s.Windows())
	}
	if st.Shards != 4 || st.Capacity != 64 {
		t.Errorf("Shards/Capacity = %d/%d, want 4/64", st.Shards, st.Capacity)
	}
	if got := st.HitRatio(); got != float64(hits)/float64(reads) {
		t.Errorf("HitRatio = %v, want %v", got, float64(hits)/float64(reads))
	}

	// The per-shard sums must equal the per-shard caches' own accounting;
	// every shard's cache reports the shared learner's window count.
	var wantLen, wantOutq int
	wantWin := s.shards[0].c.Windows()
	for i := range s.shards {
		wantLen += s.shards[i].c.Len()
		wantOutq += s.shards[i].c.OutqueueLen()
	}
	if st.Len != wantLen || st.OutqueueLen != wantOutq || st.Windows != wantWin {
		t.Errorf("Stats structural fields (%d, %d, %d) disagree with shard caches (%d, %d, %d)",
			st.Len, st.OutqueueLen, st.Windows, wantLen, wantOutq, wantWin)
	}
}

// TestShardedConcurrent hammers one front from several goroutines (the
// multi-client serving scenario); run under -race this exercises the
// per-shard try-locks. Totals are checked against a serial replay.
func TestShardedConcurrent(t *testing.T) {
	const clients = 8
	cfg := Config{Capacity: 128, Window: 1000}
	s := NewSharded(cfg, 4)

	var wg sync.WaitGroup
	hits := make([]uint64, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, r := range shardedTrace(5000, int64(100+c)) {
				if s.Access(r) && r.Op == trace.Read {
					hits[c]++
				}
			}
		}(c)
	}
	wg.Wait()

	var total uint64
	for _, h := range hits {
		total += h
	}
	if total == 0 {
		t.Error("no hits across all clients")
	}
	if got := s.Len(); got > s.Capacity() {
		t.Errorf("Len %d exceeds capacity %d", got, s.Capacity())
	}
	if s.Windows() == 0 {
		t.Error("no statistics windows completed")
	}
	if s.OutqueueLen() == 0 {
		t.Error("outqueue is empty after 40K requests")
	}
	// The run is a whole number of windows, so the last rotation emptied
	// the shared window; a little more traffic must show in a fresh one.
	for _, r := range shardedTrace(100, 1) {
		s.Access(r)
	}
	if len(s.WindowStats()) == 0 {
		t.Error("WindowStats is empty")
	}
}

// TestShardedGlobalSingleShardMatchesCache: a 1-shard Sharded front, whose
// tap leases one request at a time, must match a plain Cache, whose tap
// holds one lease for its whole life, request by request — same window
// boundary, same exact statistics, same priorities, hence the same
// hit/miss decisions.
func TestShardedGlobalSingleShardMatchesCache(t *testing.T) {
	cfg := Config{Capacity: 64, Window: 500}
	s := NewSharded(cfg, 1)
	plain := New(cfg)

	var hits uint64
	for i, r := range shardedTrace(20000, 42) {
		got := s.Access(r)
		want := plain.Access(r)
		if got != want {
			t.Fatalf("request %d (page %d): global 1-shard hit=%v, plain cache hit=%v", i, r.Page, got, want)
		}
		if got && r.Op == trace.Read {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("trace produced no hits; test is vacuous")
	}
	if s.Len() != plain.Len() || s.Windows() != plain.Windows() || s.OutqueueLen() != plain.OutqueueLen() {
		t.Errorf("structural drift: Len %d/%d, Windows %d/%d, Outqueue %d/%d",
			s.Len(), plain.Len(), s.Windows(), plain.Windows(), s.OutqueueLen(), plain.OutqueueLen())
	}
	sw, pw := s.WindowStats(), plain.WindowStats()
	if len(sw) != len(pw) {
		t.Fatalf("WindowStats lengths %d vs %d", len(sw), len(pw))
	}
	for i := range sw {
		if sw[i] != pw[i] {
			t.Errorf("WindowStats[%d]: %+v vs %+v", i, sw[i], pw[i])
		}
	}
}

// TestShardedGlobalSharedLearning checks what the shared learner is for:
// the shards share one priority model learned over the full window W.
func TestShardedGlobalSharedLearning(t *testing.T) {
	cfg := Config{Capacity: 64, Window: 500}
	s := NewSharded(cfg, 4)
	reqs := shardedTrace(20000, 7)
	for _, r := range reqs {
		s.Access(r)
	}
	// The shared learner rotates exactly every W requests, cache-wide.
	if want := len(reqs) / 500; s.Windows() != want {
		t.Errorf("Windows = %d, want %d (one rotation per full window)", s.Windows(), want)
	}
	if st := s.Stats(); st.Windows != s.Windows() {
		t.Errorf("Stats reports windows=%d", st.Windows)
	}
	// Every shard cache reads the same learner, so their priority tables
	// are identical (and non-trivial on this re-referencing trace).
	base := s.shards[0].c.Priorities()
	if len(base) == 0 {
		t.Fatal("no priorities learned")
	}
	for i := 1; i < len(s.shards); i++ {
		pr := s.shards[i].c.Priorities()
		if len(pr) != len(base) {
			t.Fatalf("shard %d table size %d, shard 0 %d", i, len(pr), len(base))
		}
		for h, v := range base {
			if pr[h] != v {
				t.Errorf("shard %d priority[%d] = %v, shard 0 %v", i, h, pr[h], v)
			}
		}
	}
}

// TestShardedGlobalConcurrent hammers a front from more clients than
// shards; under -race this exercises the one-request leases, the taps'
// hand-off at rotation, the tables the taps adopt, and the lazy per-shard
// heap re-keying together.
func TestShardedGlobalConcurrent(t *testing.T) {
	const clients = 8
	cfg := Config{Capacity: 128, Window: 1000}
	s := NewSharded(cfg, 2)

	var wg sync.WaitGroup
	hits := make([]uint64, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, r := range shardedTrace(5000, int64(100+c)) {
				if s.Access(r) && r.Op == trace.Read {
					hits[c]++
				}
			}
		}(c)
	}
	wg.Wait()

	var total uint64
	for _, h := range hits {
		total += h
	}
	if total == 0 {
		t.Error("no hits across all clients")
	}
	if got := s.Len(); got > s.Capacity() {
		t.Errorf("Len %d exceeds capacity %d", got, s.Capacity())
	}
	if want := clients * 5000 / 1000; s.Windows() != want {
		t.Errorf("Windows = %d, want exactly %d (global rotation per W requests)", s.Windows(), want)
	}
	st := s.Stats()
	if st.Requests != clients*5000 {
		t.Errorf("Requests = %d, want %d", st.Requests, clients*5000)
	}
	// The run length is a multiple of W, so the last request closed a
	// window and drained the current-window statistics; a little more
	// traffic must show up in a fresh window.
	for _, r := range shardedTrace(100, 1) {
		s.Access(r)
	}
	if len(s.WindowStats()) == 0 {
		t.Error("global WindowStats is empty after post-rotation traffic")
	}
}
