package core

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clicstats"
	"repro/internal/hint"
	"repro/internal/trace"
)

// reference is the engine-free model of a front: one plain Cache per shard
// of the front, each built from its shard's configuration around its own
// tap on one fresh clicstats.Global, fed one request at a time in stream
// order. A front driven by one goroutine must match it request by request.
type reference struct {
	s      *Sharded
	g      *clicstats.Global
	taps   []*clicstats.Learner
	caches []*Cache
}

// newReference returns the reference for front s.
func newReference(s *Sharded) *reference {
	ref := &reference{s: s, g: clicstats.NewGlobal(s.shards[0].c.Config().learnerConfig())}
	for i := range s.shards {
		ref.taps = append(ref.taps, ref.g.Tap())
		ref.caches = append(ref.caches, newCache(s.shards[i].c.Config(), ref.taps[i]))
	}
	return ref
}

// Access runs one request on its shard's cache, in a lease of its own.
func (ref *reference) Access(r trace.Request) bool {
	sh := ref.s.ShardFor(r.Page)
	ref.taps[sh].Begin(1)
	return ref.caches[sh].Access(r)
}

// Stats is the snapshot the front must report once it has answered reqs
// with hits, the reference having answered them the same way.
func (ref *reference) Stats(reqs []trace.Request, hits []bool) Stats {
	st := Stats{Shards: len(ref.caches), Capacity: ref.s.Capacity(), Windows: ref.g.Windows()}
	for i, r := range reqs {
		if r.Op == trace.Read {
			st.Reads++
			st.ReadHits += b2u(hits[i])
		} else {
			st.Writes++
		}
	}
	for _, c := range ref.caches {
		st.Evictions += c.Evictions()
		st.Len += c.Len()
		st.OutqueueLen += c.OutqueueLen()
	}
	st.Requests = st.Reads + st.Writes
	st.ReadMisses = st.Reads - st.ReadHits
	return st
}

// withCache runs fn with exclusive access to shard i's cache, holding the
// shard as Access does; fn must not call back into the front.
func (s *Sharded) withCache(i int, fn func(c *Cache)) {
	sh := &s.shards[i]
	sh.hold()
	fn(sh.c)
	s.release(sh, nil)
}

// TestOwnerMatchesPlainShards is the frame-path golden test: a single
// producer replaying the trace in batches must make bit-identical hit/miss
// decisions to the reference — plain Caches, one per shard, on taps of one
// shared learner, fed the trace in order.
func TestOwnerMatchesPlainShards(t *testing.T) {
	const shards = 4
	s := NewSharded(Config{Capacity: 64, Window: 500}, shards)
	defer s.Close()
	ref := newReference(s)

	reqs := shardedTrace(20000, 42)
	want := make([]bool, len(reqs))
	for i, r := range reqs {
		want[i] = ref.Access(r)
	}

	p := s.NewProducer()
	defer p.Close()
	const batch = 512
	hits := make([]bool, batch)
	var gotHits, wantHits uint64
	for off := 0; off < len(reqs); off += batch {
		end := off + batch
		if end > len(reqs) {
			end = len(reqs)
		}
		p.AccessBatch(reqs[off:end], hits)
		for i := off; i < end; i++ {
			if hits[i-off] != want[i] {
				t.Fatalf("request %d (page %d): framed hit=%v, plain shard hit=%v", i, reqs[i].Page, hits[i-off], want[i])
			}
			if reqs[i].Op == trace.Read {
				gotHits += b2u(hits[i-off])
				wantHits += b2u(want[i])
			}
		}
	}
	if gotHits == 0 || gotHits != wantHits {
		t.Fatalf("aggregate hits: framed %d, plain shards %d", gotHits, wantHits)
	}
	if ss, ps := s.Stats(), ref.Stats(reqs, want); ss != ps {
		t.Errorf("Stats drift:\nframed       %+v\nplain shards %+v", ss, ps)
	}

	// The control-plane snapshot must agree too.
	sw, pw := s.WindowStats(), ref.g.WindowStats()
	if len(sw) != len(pw) {
		t.Fatalf("WindowStats lengths %d vs %d", len(sw), len(pw))
	}
	for i := range sw {
		if sw[i] != pw[i] {
			t.Errorf("WindowStats[%d]: %+v vs %+v", i, sw[i], pw[i])
		}
	}
}

// TestOwnerBatchSizeInvariance replays the same trace through one producer
// at several batch sizes; results must not depend on how the stream is
// chopped into frames.
func TestOwnerBatchSizeInvariance(t *testing.T) {
	cfg := Config{Capacity: 64, Window: 500, TopK: 8}
	reqs := shardedTrace(20000, 7)
	var base uint64
	for _, batch := range []int{1, 7, 64, 512, len(reqs)} {
		s := NewSharded(cfg, 4)
		p := s.NewProducer()
		hits := make([]bool, batch)
		var total uint64
		for off := 0; off < len(reqs); off += batch {
			end := off + batch
			if end > len(reqs) {
				end = len(reqs)
			}
			p.AccessBatch(reqs[off:end], hits)
			for i := off; i < end; i++ {
				if hits[i-off] && reqs[i].Op == trace.Read {
					total++
				}
			}
		}
		p.Close()
		s.Close()
		if batch == 1 {
			base = total
			if base == 0 {
				t.Fatal("no hits at batch size 1; test is vacuous")
			}
			continue
		}
		if total != base {
			t.Errorf("batch %d: %d hits, batch 1 got %d", batch, total, base)
		}
	}
}

// TestOwnerAccessFallback drives a front through the policy.Policy
// per-request path and checks it against plain per-shard Caches request by
// request: holding a shard for one request must preserve exact semantics
// and exact accounting.
func TestOwnerAccessFallback(t *testing.T) {
	s := NewSharded(Config{Capacity: 64, Window: 500}, 4)
	defer s.Close()
	ref := newReference(s)
	reqs := shardedTrace(5000, 11)
	got := make([]bool, len(reqs))
	var hits uint64
	for i, r := range reqs {
		got[i] = s.Access(r)
		if want := ref.Access(r); got[i] != want {
			t.Fatalf("request %d: Sharded.Access=%v, plain shard Access=%v", i, got[i], want)
		}
		if got[i] && r.Op == trace.Read {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no hits; test is vacuous")
	}
	if ss, ps := s.Stats(), ref.Stats(reqs, got); ss != ps {
		t.Errorf("Stats drift:\nAccess       %+v\nplain shards %+v", ss, ps)
	}
}

// TestOwnerConcurrentProducers hammers a front with more producers than
// shards — the -race stress for the combining hand-off and frame reuse.
// Aggregate accounting must stay exact even though the interleaving is
// nondeterministic.
func TestOwnerConcurrentProducers(t *testing.T) {
	const producers = 8
	cfg := Config{Capacity: 128, Window: 1000}
	s := NewSharded(cfg, 2)
	defer s.Close()

	var wg sync.WaitGroup
	var reads, readHits, writes [producers]uint64
	for c := 0; c < producers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := s.NewProducer()
			defer p.Close()
			reqs := shardedTrace(5000, int64(100+c))
			hits := make([]bool, 96)
			for off := 0; off < len(reqs); off += 96 {
				end := off + 96
				if end > len(reqs) {
					end = len(reqs)
				}
				p.AccessBatch(reqs[off:end], hits)
				for i := off; i < end; i++ {
					if reqs[i].Op == trace.Read {
						reads[c]++
						if hits[i-off] {
							readHits[c]++
						}
					} else {
						writes[c]++
					}
				}
			}
		}(c)
	}
	wg.Wait()

	var wantReads, wantHits, wantWrites uint64
	for c := 0; c < producers; c++ {
		wantReads += reads[c]
		wantHits += readHits[c]
		wantWrites += writes[c]
	}
	st := s.Stats()
	if st.Reads != wantReads || st.Writes != wantWrites || st.Requests != uint64(producers*5000) {
		t.Errorf("Stats reads=%d writes=%d requests=%d, want %d/%d/%d",
			st.Reads, st.Writes, st.Requests, wantReads, wantWrites, producers*5000)
	}
	if st.ReadHits != wantHits {
		t.Errorf("Stats readHits=%d, client-side count %d", st.ReadHits, wantHits)
	}
	if wantHits == 0 {
		t.Error("no hits across all producers")
	}
	if s.Len() > s.Capacity() {
		t.Errorf("Len %d exceeds capacity %d", s.Len(), s.Capacity())
	}
	// The run is a whole number of windows, so the last rotation emptied
	// the shared window; a little more traffic must show in a fresh one.
	for _, r := range shardedTrace(100, 1) {
		s.Access(r)
	}
	if len(s.WindowStats()) == 0 {
		t.Error("WindowStats is empty under load")
	}
}

// TestOwnerGlobalConcurrent pairs concurrent producers with the shared
// learner: whoever holds a shard feeds the one learner through that
// shard's tap, a lease per frame, concurrently with the other shards. The
// window count stays exact (one rotation per W requests cache-wide).
func TestOwnerGlobalConcurrent(t *testing.T) {
	const producers = 6
	cfg := Config{Capacity: 128, Window: 1000}
	s := NewSharded(cfg, 2)
	defer s.Close()

	var wg sync.WaitGroup
	var hits [producers]uint64
	for c := 0; c < producers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := s.NewProducer()
			defer p.Close()
			reqs := shardedTrace(5000, int64(200+c))
			out := make([]bool, 128)
			for off := 0; off < len(reqs); off += 128 {
				end := off + 128
				if end > len(reqs) {
					end = len(reqs)
				}
				p.AccessBatch(reqs[off:end], out)
				for i := off; i < end; i++ {
					if out[i-off] && reqs[i].Op == trace.Read {
						hits[c]++
					}
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
		t.Error("no hits across producers")
	}
	if want := producers * 5000 / 1000; s.Windows() != want {
		t.Errorf("Windows = %d, want exactly %d", s.Windows(), want)
	}
}

// TestOwnerGlobalSmallWindows is the frame-invariance test: a frame is
// only a batching of requests. A 4-shard front driven by one producer
// returns, verdict for verdict and at every batch size, what the same
// front returns when the trace reaches it through Sharded.Access one
// request at a time, and what the reference returns, all in trace order;
// and the three end with equal Stats. The batch sizes run from one request
// to the whole trace, so frames span many windows, and W = 3 puts several
// rotations inside one batch, where AccessBatch must cut it. Top-k mode
// keeps per-tap Space-Saving summaries replacing, which holds only if each
// tap sees its shard's requests in trace order. The cluster goldens lean
// on this identity through three layers; here it is cheap to debug.
func TestOwnerGlobalSmallWindows(t *testing.T) {
	const shards = 4
	reqs := shardedTrace(20000, 13)
	for _, topK := range []int{0, 8} {
		for _, w := range []int{3, 500, 1000} {
			cfg := Config{Capacity: 64, Window: w, TopK: topK}
			serial := NewSharded(cfg, shards)
			ref := newReference(serial)
			want := make([]bool, len(reqs))
			var readHits int
			for i, r := range reqs {
				one, plain := serial.Access(r), ref.Access(r)
				if one != plain {
					t.Fatalf("TopK=%d W=%d request %d (page %d): one at a time hit=%v, plain shard hit=%v", topK, w, i, r.Page, one, plain)
				}
				want[i] = one
				if one && r.Op == trace.Read {
					readHits++
				}
			}
			if readHits == 0 {
				t.Fatalf("TopK=%d W=%d: no hits; test is vacuous", topK, w)
			}
			ss, ps := serial.Stats(), ref.Stats(reqs, want)
			if ss != ps || ss.Windows != len(reqs)/w {
				t.Errorf("TopK=%d W=%d: Stats drift, want %d windows:\none at a time %+v\nplain shards  %+v", topK, w, len(reqs)/w, ss, ps)
			}
			for _, batch := range []int{1, 7, 64, 512, 2000, len(reqs)} {
				framed := NewSharded(cfg, shards)
				p := framed.NewProducer()
				hits := make([]bool, batch)
				for off := 0; off < len(reqs); off += batch {
					chunk := reqs[off:min(off+batch, len(reqs))]
					p.AccessBatch(chunk, hits)
					for i := range chunk {
						if hits[i] != want[off+i] {
							t.Fatalf("TopK=%d W=%d batch %d request %d (page %d): framed hit=%v, one at a time hit=%v", topK, w, batch, off+i, chunk[i].Page, hits[i], want[off+i])
						}
					}
				}
				if fs := framed.Stats(); fs != ss {
					t.Errorf("TopK=%d W=%d batch %d: Stats drift:\nframed        %+v\none at a time %+v", topK, w, batch, fs, ss)
				}
			}
		}
	}
}

// TestOwnerClose checks Close is idempotent and leaves snapshots readable.
func TestOwnerClose(t *testing.T) {
	s := NewSharded(Config{Capacity: 32, Window: 500}, 3)
	p := s.NewProducer()
	reqs := shardedTrace(2000, 3)
	hits := make([]bool, len(reqs))
	p.AccessBatch(reqs, hits)
	p.Close()
	st := s.Stats()
	s.Close()
	s.Close() // idempotent
	if after := s.Stats(); after != st {
		t.Errorf("Stats changed across Close: %+v vs %+v", after, st)
	}
	if st.Requests != uint64(len(reqs)) {
		t.Errorf("Requests = %d, want %d", st.Requests, len(reqs))
	}
}

// TestOwnerCombineStress is the -race stress for the shard hand-off: more
// producers than shards, frames of one to three requests so that pushes,
// try-locks and releases collide constantly, two goroutines holding shards
// for single requests through Sharded.Access, and a control-plane reader
// taking the idle taps for WindowStats. A lost frame shows as a producer
// that never returns (the watchdog), a frame or request run twice or by two
// holders at once as broken accounting, a data race, or a cache that fails
// checkConsistency — which runs here inside the engine, through withCache,
// on every shard. Its group-priority check holds only because each tap's
// table moves at its own lease or rotation, never under a shard at rest.
func TestOwnerCombineStress(t *testing.T) {
	const (
		producers = 8
		accessors = 2
		shards    = 2
		perProd   = 12000
		perAcc    = 6000
	)
	s := NewSharded(Config{Capacity: 128, Window: 1000}, shards)
	defer s.Close()

	// wg counts the request drivers, helpers the goroutines that outlive
	// them; the test joins both before it returns.
	var wg, helpers sync.WaitGroup
	var reads, readHits [producers + accessors]uint64
	var wantFrames, posted, foreign [producers]uint64
	for c := 0; c < producers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := s.NewProducer()
			defer p.Close()
			rng := rand.New(rand.NewSource(int64(300 + c)))
			reqs := shardedTrace(perProd, int64(300+c))
			var hits [3]bool
			for len(reqs) > 0 {
				n := min(1+rng.Intn(3), len(reqs))
				p.AccessBatch(reqs[:n], hits[:])
				var touched [shards]bool
				for i, r := range reqs[:n] {
					if r.Op == trace.Read {
						reads[c]++
						if hits[i] {
							readHits[c]++
						}
					}
					if sh := s.ShardFor(r.Page); !touched[sh] {
						touched[sh] = true
						wantFrames[c]++
					}
				}
				reqs = reqs[n:]
			}
			posted[c], foreign[c] = p.Frames()
		}(c)
	}
	for a := producers; a < producers+accessors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for _, r := range shardedTrace(perAcc, int64(300+a)) {
				hit := s.Access(r)
				if r.Op == trace.Read {
					reads[a]++
					readHits[a] += b2u(hit)
				}
			}
		}(a)
	}
	var stop atomic.Bool
	var snapshots int
	helpers.Add(2)
	go func() {
		defer helpers.Done()
		for !stop.Load() {
			s.WindowStats()
			snapshots++
		}
	}()
	done := make(chan struct{})
	go func() {
		defer helpers.Done()
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		buf := make([]byte, 1<<16)
		t.Fatalf("drivers still waiting after 2m: a posted frame was never run\n%s", buf[:runtime.Stack(buf, true)])
	}
	stop.Store(true)
	helpers.Wait()

	var wantReads, wantHits uint64
	for c := range reads {
		wantReads += reads[c]
		wantHits += readHits[c]
	}
	st := s.Stats()
	if want := uint64(producers*perProd + accessors*perAcc); st.Requests != want {
		t.Errorf("Stats().Requests = %d, submitted %d through producers and %d through Access", st.Requests, producers*perProd, accessors*perAcc)
	}
	if st.Reads != wantReads || st.ReadHits != wantHits {
		t.Errorf("Stats reads/hits = %d/%d, drivers counted %d/%d", st.Reads, st.ReadHits, wantReads, wantHits)
	}
	if wantHits == 0 || snapshots == 0 {
		t.Errorf("vacuous run: %d hits, %d control snapshots", wantHits, snapshots)
	}
	// A batch that crosses a multiple of W is cut there, and each cut adds
	// at most one frame to a batch of three requests or fewer. A producer
	// cuts at a boundary at most once, since the piece before the cut
	// leases up to it, so it cuts at most once per rotation.
	for c := 0; c < producers; c++ {
		if posted[c] < wantFrames[c] || posted[c] > wantFrames[c]+uint64(s.Windows()) || foreign[c] > posted[c] {
			t.Errorf("producer %d: Frames() = %d posted, %d foreign; its batches made %d frames before cuts at %d rotations", c, posted[c], foreign[c], wantFrames[c], s.Windows())
		}
	}
	for i := 0; i < shards; i++ {
		s.withCache(i, func(c *Cache) {
			if err := c.checkConsistency(); err != nil {
				t.Errorf("shard %d: %v", i, err)
			}
		})
	}
}

// TestOwnerAccessDrainsFrames: a frame posted while Sharded.Access holds
// the shard must be run by that Access's release. One producer posting
// one-request frames and one goroutine calling Access share a one-shard
// front with no other holder, so a frame the release left on the list
// would stay there and the producer would wait for it forever (the
// watchdog). TestOwnerCombineStress cannot see this: its Access goroutines
// hold the shards too, and their releases would run the frame late.
func TestOwnerAccessDrainsFrames(t *testing.T) {
	const n = 20000
	s := NewSharded(Config{Capacity: 64, Window: 500}, 1)
	reqs := shardedTrace(2*n, 17)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p := s.NewProducer()
		var hits [1]bool
		for i := range n {
			p.AccessBatch(reqs[i:i+1], hits[:])
		}
	}()
	go func() {
		defer wg.Done()
		for _, r := range reqs[n:] {
			s.Access(r)
		}
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("producer still waiting after 1m: a frame posted during an Access was never run")
	}
	if got := s.Stats().Requests; got != 2*n {
		t.Errorf("Requests = %d, want %d", got, 2*n)
	}
}

// TestProducerFrameCounts pins what Producer.Frames counts: every frame
// posted, and as foreign exactly those the posting goroutine did not run.
// The collision is staged: with the shard's try-lock held, a's post must
// leave its frame pending; b, posting after the release, runs both.
func TestProducerFrameCounts(t *testing.T) {
	s := NewSharded(Config{Capacity: 64, Window: 500}, 1)
	defer s.Close()
	a, b := s.NewProducer(), s.NewProducer()
	reqs := shardedTrace(40, 9)
	hitsA, hitsB := make([]bool, 20), make([]bool, 20)

	sh := &s.shards[0]
	sh.busy.Store(true)
	f := a.frames[0]
	f.reqs, f.idx, f.hits = reqs[:20], make([]int32, 20), hitsA
	for i := range f.idx {
		f.idx[i] = int32(i)
	}
	a.wg.Add(1)
	a.post(0, f)
	if posted, foreign := a.Frames(); posted != 1 || foreign != 1 {
		t.Errorf("a posted into a held shard: Frames() = %d, %d, want 1, 1", posted, foreign)
	}
	if got := s.Stats().Requests; got != 0 {
		t.Fatalf("%d requests ran while the shard was held", got)
	}
	sh.busy.Store(false)
	b.AccessBatch(reqs[20:], hitsB)
	a.wg.Wait()
	if posted, foreign := b.Frames(); posted != 1 || foreign != 0 {
		t.Errorf("b ran its own frame and a's: Frames() = %d, %d, want 1, 0", posted, foreign)
	}
	if got := s.Stats().Requests; got != 40 {
		t.Errorf("Requests = %d after both frames, want 40", got)
	}

	// Alone on a front nothing is foreign, and a batch posts one frame per
	// shard it touches.
	wide := NewSharded(Config{Capacity: 64, Window: 500}, 4)
	defer wide.Close()
	p := wide.NewProducer()
	touched := map[int]bool{}
	for _, r := range reqs {
		touched[wide.ShardFor(r.Page)] = true
	}
	p.AccessBatch(reqs, make([]bool, len(reqs)))
	if posted, foreign := p.Frames(); posted != uint64(len(touched)) || foreign != 0 {
		t.Errorf("solo producer: Frames() = %d, %d, want %d, 0", posted, foreign, len(touched))
	}
}

// TestProbeReuseSurvivesMoves pins that a frame's Access trusts the
// position warm found for its record only while the slot there still
// holds the page. One producer drives a one-shard front in batches of 512
// with W = 704, so every warm group is 16 requests starting at a multiple
// of 16 in the stream, and the reference — a plain Cache fed the same
// stream through serial Access — replays warm's probe at each group start.
// Between a group's warm and a request's Access, earlier requests of the
// group grow the table, shift records back over a removed outqueue head
// (Noutq of 3 and of 1), make the record of a page warm did not find, or
// are the same page; Capacity 0 and NoOutqueue have no outqueue or no
// cache to move records through. Verdicts, Stats (evictions and outqueue
// length among them) and the table must be those of the reference.
func TestProbeReuseSurvivesMoves(t *testing.T) {
	type moves struct{ grows, shifted, created, reused, repeated int }
	for _, tc := range []struct {
		name string
		cfg  Config
		need func(m moves) bool
	}{
		{"grow", Config{Capacity: 400}, func(m moves) bool { return m.grows > 0 }},
		{"tiny outqueue", Config{Capacity: 48, Noutq: 3}, func(m moves) bool { return m.shifted > 0 }},
		{"outqueue of one", Config{Capacity: 48, Noutq: 1}, func(m moves) bool { return m.shifted > 0 }},
		{"no cache", Config{Capacity: 0, Noutq: 24}, func(m moves) bool { return m.shifted > 0 }},
		{"zero capacity", Config{Capacity: 0}, func(m moves) bool { return m.reused+m.created == 0 }},
		{"no outqueue", Config{Capacity: 48, Noutq: NoOutqueue}, func(m moves) bool { return m.created > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Window = 704
			s := NewSharded(tc.cfg, 1)
			ref := newReference(s)
			c := ref.caches[0]
			reqs := shardedTrace(12000, 54)
			// The same page twice in a group: a quarter of the requests
			// repeat one of the up to 15 before them.
			rng := rand.New(rand.NewSource(54))
			for i := 1; i < len(reqs); i++ {
				if rng.Intn(4) == 0 {
					reqs[i].Page = reqs[i-1-rng.Intn(min(i, warmGroup-1))].Page
				}
			}

			var m moves
			want := make([]bool, len(reqs))
			var pos [warmGroup]uint32
			for lo := 0; lo < len(reqs); lo += warmGroup {
				group := reqs[lo:min(lo+warmGroup, len(reqs))]
				for j, r := range group {
					pos[j] = c.find(r.Page)
					if slices.ContainsFunc(group[:j], func(q trace.Request) bool { return q.Page == r.Page }) {
						m.repeated++
					}
				}
				size := len(c.ents)
				for j, r := range group {
					grown := len(c.ents) != size
					switch at := c.find(r.Page); {
					case pos[j] == at && at != 0:
						m.reused++
					case pos[j] == 0 && at != 0:
						m.created++
					case pos[j] != 0 && at != 0 && !grown:
						m.shifted++
					}
					want[lo+j] = ref.Access(r)
					if len(c.ents) != size && j < len(group)-1 && !grown {
						m.grows++
					}
				}
			}
			if !tc.need(m) || m.repeated == 0 {
				t.Fatalf("the stream did not meet the case: %+v", m)
			}

			p := s.NewProducer()
			hits := make([]bool, 512)
			for off := 0; off < len(reqs); off += len(hits) {
				end := min(off+len(hits), len(reqs))
				p.AccessBatch(reqs[off:end], hits)
				for i := off; i < end; i++ {
					if hits[i-off] != want[i] {
						t.Fatalf("request %d (page %d): framed hit=%v, serial Access hit=%v (%+v)", i, reqs[i].Page, hits[i-off], want[i], m)
					}
				}
				s.withCache(0, func(got *Cache) {
					if err := got.checkConsistency(); err != nil {
						t.Fatalf("after request %d: %v", end-1, err)
					}
				})
			}
			if ss, ps := s.Stats(), ref.Stats(reqs, want); ss != ps {
				t.Errorf("Stats drift:\nframed %+v\nserial %+v", ss, ps)
			}
			s.withCache(0, func(got *Cache) {
				if !slices.Equal(got.ents, c.ents) || got.outHead != c.outHead || got.outTail != c.outTail {
					t.Error("the framed shard's table differs from the serial cache's")
				}
			})
		})
	}
}

// recount is a batch's read and read-hit counts, counted from its verdicts.
func recount(reqs []trace.Request, hits []bool) (reads, readHits uint64) {
	for i, r := range reqs {
		if r.Op == trace.Read {
			reads++
			readHits += b2u(hits[i])
		}
	}
	return reads, readHits
}

// TestAccessBatchCounts pins AccessBatch's read and read-hit counts, which
// its frames count as they run, against a recount of its verdicts: for one
// producer whose batches are cut at multiples of W, for two producers
// colliding on two shards — one of them staged so that both of its frames
// run on the other's goroutine, then both at once — and for an empty batch.
func TestAccessBatchCounts(t *testing.T) {
	check := func(p *Producer, reqs []trace.Request, hits []bool) {
		t.Helper()
		reads, readHits := p.AccessBatch(reqs, hits)
		if wr, wh := recount(reqs, hits); reads != wr || readHits != wh {
			t.Errorf("AccessBatch of %d requests counted %d reads, %d read hits; its verdicts hold %d, %d", len(reqs), reads, readHits, wr, wh)
		}
	}

	reqs := shardedTrace(8000, 61)
	solo := NewSharded(Config{Capacity: 64, Window: 300}, 4)
	p := solo.NewProducer()
	hits := make([]bool, 1000)
	for off := 0; off < len(reqs); off += len(hits) {
		check(p, reqs[off:off+len(hits)], hits)
	}
	if solo.Windows() < len(reqs)/300 || solo.Stats().ReadHits == 0 {
		t.Fatalf("vacuous: %d rotations, %d read hits", solo.Windows(), solo.Stats().ReadHits)
	}
	check(p, nil, nil)

	// The staged collision: with both shards' try-locks held, a's and b's
	// frames wait on the lists until the holder runs them all, so every
	// count either producer sums was written on another goroutine.
	s := NewSharded(Config{Capacity: 64, Window: 500}, 2)
	a, b := s.NewProducer(), s.NewProducer()
	for sh := range s.shards {
		s.shards[sh].busy.Store(true)
	}
	var wg sync.WaitGroup
	for i, p := range []*Producer{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(p, reqs[i*64:(i+1)*64], make([]bool, 64))
		}()
	}
	for sh := range s.shards {
		for n := 0; n < 2; runtime.Gosched() {
			n = 0
			for f := s.shards[sh].pending.Load(); f != nil; f = f.next {
				n++
			}
		}
		s.release(&s.shards[sh], nil)
	}
	wg.Wait()
	for _, p := range []*Producer{a, b} {
		if posted, foreign := p.Frames(); posted != 2 || foreign != 2 {
			t.Fatalf("staged collision: Frames() = %d, %d, want 2, 2", posted, foreign)
		}
	}

	for i, p := range []*Producer{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits := make([]bool, 8)
			for off := 0; off+8 <= 4000; off += 8 {
				check(p, reqs[i*4000+off:i*4000+off+8], hits)
			}
		}()
	}
	wg.Wait()
	check(a, nil, nil)
}

// TestOwnerSpawnsNoGoroutines pins that the engine is made of its callers:
// building a front, driving it every way it can be driven and closing it
// never leave more goroutines than there were before the front existed.
// The baseline is taken once the count has stopped falling — goroutines of
// earlier tests in the binary may still be on their way out — and only a
// count above it fails.
func TestOwnerSpawnsNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= base {
			break
		}
		base = n
	}
	check := func(step string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("after %s: %d goroutines, %d before the front existed", step, n, base)
		}
	}
	s := NewSharded(Config{Capacity: 64, Window: 500}, 4)
	check("NewSharded")
	p := s.NewProducer()
	reqs := shardedTrace(2000, 5)
	hits := make([]bool, len(reqs))
	p.AccessBatch(reqs, hits)
	check("AccessBatch")
	s.Access(reqs[0])
	check("Access")
	if len(s.WindowStats()) == 0 {
		t.Error("WindowStats is empty")
	}
	check("WindowStats")
	p.Close()
	s.Close()
	check("Close")
	if st := s.Stats(); st.Requests != uint64(len(reqs))+1 {
		t.Errorf("Requests = %d, want %d", st.Requests, len(reqs)+1)
	}
}

// TestShardedShardLayout pins the padding: a shard is a whole number of
// cache lines, the hand-off words fill the first and nothing else does, so
// no counter and no neighbouring shard shares a line with a try-lock.
func TestShardedShardLayout(t *testing.T) {
	var sh shardedShard
	if n := unsafe.Sizeof(sh); n%cacheLine != 0 {
		t.Errorf("shardedShard is %d bytes, not a multiple of %d", n, cacheLine)
	}
	if end := unsafe.Offsetof(sh.tap) + unsafe.Sizeof(sh.tap); end > cacheLine {
		t.Errorf("hand-off words end at byte %d, past the first line", end)
	}
	if off := unsafe.Offsetof(sh.reads); off != cacheLine {
		t.Errorf("counters start at byte %d, want %d", off, cacheLine)
	}
	if end := unsafe.Offsetof(sh.outq) + unsafe.Sizeof(sh.outq); end > 2*cacheLine {
		t.Errorf("counters end at byte %d, past the second line", end)
	}
}

// BenchmarkFrameWarm prices a request on a cache whose records (1.2M of
// them in a 62 MB table) are far out of the CPU's reach, so that every
// Access misses on the record and its list neighbours: through a one-shard
// front in frames of 512, where warm loads those lines a group of 16 ahead,
// and through plain Access, where each request takes its misses one after
// another. One iteration is one frame.
func BenchmarkFrameWarm(b *testing.B) {
	const pages, frames = 1_500_000, 1 << 10
	rng := rand.New(rand.NewSource(8))
	reqs := make([]trace.Request, frames*DefaultAccessBatch)
	for i := range reqs {
		reqs[i] = trace.Request{Page: uint64(rng.Intn(pages)), Hint: hint.ID(rng.Intn(32)), Op: trace.Op(rng.Intn(4) / 3)}
	}
	cfg := Config{Capacity: 200_000, Window: 100_000}
	hits := make([]bool, DefaultAccessBatch)
	frame := func(i int) []trace.Request {
		off := i % frames * DefaultAccessBatch
		return reqs[off : off+DefaultAccessBatch]
	}
	fill := func(access func(r trace.Request)) {
		for p := uint64(0); p < pages; p++ {
			access(trace.Request{Page: p, Hint: hint.ID(p % 32)})
		}
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/DefaultAccessBatch, "ns/request")
	}
	b.Run("frames", func(b *testing.B) {
		s := NewSharded(cfg, 1)
		defer s.Close()
		fill(func(r trace.Request) { s.Access(r) })
		p := s.NewProducer()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.AccessBatch(frame(i), hits)
		}
		report(b)
	})
	b.Run("serial", func(b *testing.B) {
		c := New(cfg)
		fill(func(r trace.Request) { c.Access(r) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range frame(i) {
				hits[0] = c.Access(r)
			}
		}
		report(b)
	})
}

// BenchmarkShardedAccess prices the per-request path a serial -shards
// replay takes: one goroutine, an 8-shard front, every request holding its
// shard through the try-lock and leasing its tap for itself. One
// iteration is one request, so ns/op is ns per request.
func BenchmarkShardedAccess(b *testing.B) {
	reqs := shardedTrace(1<<16, 21)
	s := NewSharded(Config{Capacity: 1024, Window: 10_000}, 8)
	for _, r := range reqs {
		s.Access(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = s.Access(reqs[i&(len(reqs)-1)])
	}
}

// benchSink keeps benchmark results alive past the compiler.
var benchSink bool
