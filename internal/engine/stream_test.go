package engine

import (
	"errors"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestServeIteratorPlainPolicySingleClient: the non-Sharded per-request
// path, serial with one client, must reproduce sim.Run bit-exactly.
func TestServeIteratorPlainPolicySingleClient(t *testing.T) {
	tr := testTrace.Truncate(15000)
	cfg := core.Config{Capacity: 2000, Window: 2000}
	want := sim.Run(core.New(cfg), tr)

	it := tr.Iter()
	defer it.Close()
	got, err := ServeIterator(core.New(cfg), it, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
		t.Errorf("streaming %d/%d hits/reads, sim.Run %d/%d",
			got.ReadHits, got.Reads, want.ReadHits, want.Reads)
	}
	if got.Requests != uint64(tr.Len()) || got.Trace != tr.Name {
		t.Errorf("Requests=%d Trace=%q, want %d %q", got.Requests, got.Trace, tr.Len(), tr.Name)
	}
}

// TestServeSourceGenerator drives the cache straight from a live workload
// generator — the trace never exists in RAM or on disk.
func TestServeSourceGenerator(t *testing.T) {
	spec, err := workload.ParseSpec("DB2_C60*3:18000")
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSharded(core.Config{Capacity: 2000, Window: 2000}, 4)
	res, err := ServeSource(s, spec.Source(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 18000 {
		t.Errorf("Requests = %d, want 18000", res.Requests)
	}
	if len(res.PerClient) != 3 {
		t.Fatalf("PerClient has %d entries, want 3", len(res.PerClient))
	}
	for c, st := range res.PerClient {
		if st.Name != spec.ClientNames()[c] {
			t.Errorf("client %d named %q, want %q", c, st.Name, spec.ClientNames()[c])
		}
		if st.Reads == 0 {
			t.Errorf("client %d issued no reads", c)
		}
	}
	if res.ReadHits == 0 {
		t.Error("no hits; test is vacuous")
	}
}

// TestServeIteratorTimesEveryBatch: with a histogram, ServeIterator
// observes each AccessBatch call exactly once, and it makes one call per
// run sized to the front — Σ⌈n_c/run⌉ over the clients, where run is the
// smallest multiple of the batch size holding 16,384 requests on 8 shards
// and 4,096 on one — and a policy without batches is not timed. Each
// client's 30,000 requests make 2 runs of 16,384, 4 of 8,192 or 8 of 4,096.
func TestServeIteratorTimesEveryBatch(t *testing.T) {
	merged := twoClients(t)
	for _, tc := range []struct{ shards, batch, run int }{
		{8, 0, 16384},
		{8, 100, 16400},
		{1, 0, 4096},
		{1, 100, 4100},
	} {
		var want uint64
		for _, reqs := range merged.SplitClients() {
			want += uint64((len(reqs) + tc.run - 1) / tc.run)
		}
		s := core.NewSharded(core.Config{Capacity: 2000, Window: 2000}, tc.shards)
		var lat metrics.Histogram
		if _, err := ServeIterator(s, merged.Iter(), tc.batch, &lat); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if got := lat.Summary().Count; got != want {
			t.Errorf("%d shards, batch %d: %d latency observations, want one per %d-request run, %d", tc.shards, tc.batch, got, tc.run, want)
		}
	}
	var lat metrics.Histogram
	if _, err := ServeIterator(core.New(core.Config{Capacity: 2000}), testTrace.Truncate(3000).Iter(), 0, &lat); err != nil {
		t.Fatal(err)
	}
	if got := lat.Summary().Count; got != 0 {
		t.Errorf("plain cache: %d latency observations, want none", got)
	}
}

// TestDispatchOwnerMoreClientsThanShards drives a 2-shard front from 6
// concurrent producers in batches of 3 requests, each served as one
// AccessBatch, so that frames of one or two requests collide on every
// shard — the engine-layer -race stress for the combining hand-off at its
// finest grain. ServeSource serves whole runs, so the test drives Dispatch
// itself; the producers must post at least a frame per batch, or the grain
// has coarsened. Per-client read counts are exact; hit counts depend on
// interleaving but the accounting must balance.
func TestDispatchOwnerMoreClientsThanShards(t *testing.T) {
	const batch = 3
	merged := sixClients(t)
	s := core.NewSharded(core.Config{Capacity: 3000, Window: 3000}, 2)
	defer s.Close()
	var (
		mu    sync.Mutex
		prods []*core.Producer
	)
	res, err := Dispatch(merged.Iter(), 0, batch, func(_ string, _ *KeyLog, st *sim.ClientStat) (Session, error) {
		sess := &localSession{p: s, prod: s.NewProducer(), st: st, hits: make([]bool, batch)}
		mu.Lock()
		prods = append(prods, sess.prod)
		mu.Unlock()
		return sess, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var reads, hits, batches, posted uint64
	for c, st := range res.PerClient {
		wantReads, n := uint64(0), 0
		for _, r := range merged.Reqs {
			if int(r.Client) == c {
				n++
				if r.Op == trace.Read {
					wantReads++
				}
			}
		}
		if st.Reads != wantReads {
			t.Errorf("client %d Reads = %d, want %d", c, st.Reads, wantReads)
		}
		reads += st.Reads
		hits += st.ReadHits
		batches += uint64((n + batch - 1) / batch)
	}
	for _, p := range prods {
		n, _ := p.Frames()
		posted += n
	}
	if posted < batches {
		t.Errorf("producers posted %d frames for %d batches of %d, want at least one a batch", posted, batches, batch)
	}
	if res.Reads != reads || res.ReadHits != hits {
		t.Errorf("totals (%d, %d) disagree with per-client sums (%d, %d)", res.Reads, res.ReadHits, reads, hits)
	}
	if res.ReadHits == 0 {
		t.Error("no hits at all; cache is not being exercised")
	}
	st := s.Stats()
	if st.Reads != res.Reads || st.ReadHits != res.ReadHits {
		t.Errorf("Stats (%d reads, %d hits) disagree with result (%d, %d)", st.Reads, st.ReadHits, res.Reads, res.ReadHits)
	}
	if st.Requests != uint64(merged.Len()) {
		t.Errorf("Stats.Requests = %d, want %d", st.Requests, merged.Len())
	}
}

// fakeSession is a Session that only counts and records, failing its
// failAt-th Submit (0 = never), for driving Dispatch without a cache behind
// it.
type fakeSession struct {
	st      *sim.ClientStat
	failAt  int
	submits int
	// lens holds each Submit's length, and got every request submitted, in
	// order.
	lens    []int
	got     []trace.Request
	drained atomic.Bool
	closed  atomic.Bool
}

var errFake = errors.New("fake session failure")

func (s *fakeSession) Submit(reqs []trace.Request) error {
	s.submits++
	if s.submits == s.failAt {
		return errFake
	}
	s.lens = append(s.lens, len(reqs))
	s.got = append(s.got, reqs...)
	s.st.Reads += uint64(len(reqs)) // count every request, read or not
	return nil
}
func (s *fakeSession) Drain() error { s.drained.Store(true); return nil }
func (s *fakeSession) Close() error { s.closed.Store(true); return nil }

// twoClients interleaves two copies of the whole test trace.
func twoClients(tb testing.TB) *trace.Trace {
	tb.Helper()
	a, b := testTrace.Truncate(testTrace.Len()), testTrace.Truncate(testTrace.Len())
	a.Name, b.Name = "A", "B"
	two, err := trace.Interleave("TWO", a, b)
	if err != nil {
		tb.Fatal(err)
	}
	return two
}

// BenchmarkDispatch prices the dispatcher alone: two clients' in-memory
// trace scattered, in full frames, to sessions that do nothing.
func BenchmarkDispatch(b *testing.B) {
	two := twoClients(b)
	open := func(string, *KeyLog, *sim.ClientStat) (Session, error) { return nopSession{}, nil }
	for b.Loop() {
		if _, err := Dispatch(two.Iter(), 0, core.DefaultAccessBatch, open); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*two.Len()), "ns/req")
}

// BenchmarkServeSource prices the in-process serve: two clients' in-memory
// trace served through ServeSource by an 8-shard front.
func BenchmarkServeSource(b *testing.B) {
	two := twoClients(b)
	s := core.NewSharded(core.Config{Capacity: 3000, Window: 50000, TopK: 100}, 8)
	defer s.Close()
	for b.Loop() {
		if _, err := ServeSource(s, two.Source(), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*two.Len()), "ns/req")
}

// TestDispatchReusesRunBuffers: a finished replay leaves its run buffers
// to the next one. Each replay's sessions hold their first batch until
// the scan has handed out ten runs, by which time each of the two clients
// has all six buffers it can have out (four queued, one in its session,
// one being filled), so both replays need the same twelve; with the
// collector off (it frees the spare buffers) the second allocates less
// than one run buffer.
func TestDispatchReusesRunBuffers(t *testing.T) {
	two := twoClients(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	replay := func() uint64 {
		gate := make(chan struct{})
		it := &gatedIter{Iterator: two.Iter(), after: 10 * runRequests, gate: gate}
		open := func(string, *KeyLog, *sim.ClientStat) (Session, error) { return gatedSession{gate}, nil }
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Dispatch(it, 0, core.DefaultAccessBatch, open); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := replay()
	run := uint64(runRequests * unsafe.Sizeof(trace.Request{}))
	if second := replay(); second >= run {
		t.Errorf("second replay allocated %d bytes (the first %d), want under one %d-byte run buffer", second, first, run)
	}
}

// TestGetRunKeepsSmallSpares: a spare run buffer too small for the run
// asked for stays on the list for a call with shorter runs, since one
// process serves runs of different sizes.
func TestGetRunKeepsSmallSpares(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection frees spares
	spareRuns.Lock()
	saved := spareRuns.runs
	spareRuns.runs = nil
	spareRuns.Unlock()
	defer func() {
		spareRuns.Lock()
		spareRuns.runs = saved
		spareRuns.Unlock()
	}()

	small := make([]trace.Request, 0, 4096)
	putRun(small)
	if big := getRun(16384); cap(big) != 16384 || unsafe.SliceData(big) == unsafe.SliceData(small) {
		t.Fatalf("getRun(16384) returned a buffer of capacity %d, want a new one of 16384", cap(big))
	}
	if got := getRun(4096); unsafe.SliceData(got) != unsafe.SliceData(small) {
		t.Error("getRun(4096) allocated: the 4,096-request spare left the list when a 16,384-request run was asked for")
	}
}

// TestDispatchBoundsClientBuffers: a client's queue is bounded in
// requests, so the run buffers a client has out at once — queued, in its
// session and being filled — are at most six at 4,096-request runs (the
// wire drivers') and three at 16,384 (ServeIterator's on 8 shards). The
// sessions hold their first run for 250 ms, so that the scan stops for
// want of queue space and a client reaches its bound: a scan blocked on a
// full queue makes no event a test can wait on, and a gate the iterator
// closed would open before a deeper queue filled. A session is handed
// whole runs (the batch is the run), told apart by their first element.
func TestDispatchBoundsClientBuffers(t *testing.T) {
	two := trace.New("BUFS", 0)
	two.Clients = []string{"A", "B"}
	for i := range 2 * 5 * 16384 {
		two.AppendReq(trace.Request{Page: uint64(i), Client: uint8(i % 2)})
	}
	for _, tc := range []struct{ run, most int }{{4096, 6}, {16384, 3}} {
		gate := make(chan struct{})
		time.AfterFunc(250*time.Millisecond, func() { close(gate) })
		var mu sync.Mutex
		var bufs []map[*trace.Request]bool
		_, err := Dispatch(two.Iter(), 0, tc.run, func(string, *KeyLog, *sim.ClientStat) (Session, error) {
			s := &bufSession{gate: gate, bufs: map[*trace.Request]bool{}}
			mu.Lock()
			bufs = append(bufs, s.bufs)
			mu.Unlock()
			return s, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		most := 0
		for c, b := range bufs {
			if len(b) > tc.most {
				t.Errorf("%d-request runs: client %d had %d run buffers, want at most %d", tc.run, c, len(b), tc.most)
			}
			most = max(most, len(b))
		}
		if most < tc.most {
			t.Errorf("%d-request runs: no client had more than %d run buffers out; the test never reached its bound of %d", tc.run, most, tc.most)
		}
	}
}

// bufSession records each run buffer it is handed, and takes batches once
// its gate is closed.
type bufSession struct {
	gate chan struct{}
	bufs map[*trace.Request]bool
}

func (s *bufSession) Submit(reqs []trace.Request) error {
	<-s.gate
	s.bufs[unsafe.SliceData(reqs)] = true
	return nil
}
func (*bufSession) Drain() error { return nil }
func (*bufSession) Close() error { return nil }

// TestDispatchConcurrentReplays: replays running at once take spare run
// buffers from, and return them to, the same list; none is handed to two
// of them, so every session still gets exactly its client's requests in
// trace order.
func TestDispatchConcurrentReplays(t *testing.T) {
	two := twoClients(t)
	want := make(map[string][]trace.Request)
	for _, r := range two.Reqs {
		name := two.Clients[r.Client]
		want[name] = append(want[name], r)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mu sync.Mutex
			sessions := map[string]*fakeSession{}
			_, err := Dispatch(two.Iter(), 0, core.DefaultAccessBatch, func(name string, _ *KeyLog, st *sim.ClientStat) (Session, error) {
				s := &fakeSession{st: st}
				mu.Lock()
				sessions[name] = s
				mu.Unlock()
				return s, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			for name, s := range sessions {
				if !slices.Equal(s.got, want[name]) {
					t.Errorf("client %s got %d requests, not its %d in trace order", name, len(s.got), len(want[name]))
				}
			}
		}()
	}
	wg.Wait()
}

// gatedIter hands out its iterator's requests in runs of 2048 and closes
// gate once it has handed out after of them, or all of them.
type gatedIter struct {
	trace.Iterator
	rest   []trace.Request
	handed int
	after  int
	gate   chan struct{}
}

func (g *gatedIter) Next() []trace.Request {
	if len(g.rest) == 0 {
		g.rest = g.Iterator.Next()
	}
	run := g.rest[:min(2048, len(g.rest))]
	g.rest = g.rest[len(run):]
	if (g.handed >= g.after || len(run) == 0) && g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.handed += len(run)
	return run
}

// gatedSession takes batches once its gate is closed.
type gatedSession struct{ gate chan struct{} }

func (s gatedSession) Submit([]trace.Request) error { <-s.gate; return nil }
func (gatedSession) Drain() error                   { return nil }
func (gatedSession) Close() error                   { return nil }

type nopSession struct{}

func (nopSession) Submit([]trace.Request) error { return nil }
func (nopSession) Drain() error                 { return nil }
func (nopSession) Close() error                 { return nil }

// sixClients interleaves six copies of the test trace's prefix.
func sixClients(t *testing.T) *trace.Trace {
	t.Helper()
	parts := make([]*trace.Trace, 6)
	for i := range parts {
		parts[i] = testTrace.Truncate(6000)
		parts[i].Name = string(rune('A' + i))
	}
	merged, err := trace.Interleave("SIX", parts...)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestDispatchLimit: a positive limit hands the sessions exactly that many
// requests — not a batch more — whatever the batch size, each client's
// batches carry its requests in trace order, and every batch holds exactly
// the batch size except the client's last, which is not empty. The sizes
// include ones that do not divide core.DefaultAccessBatch and one above it.
// The two-client input is long enough that each client gets several full
// runs.
func TestDispatchLimit(t *testing.T) {
	six, two := sixClients(t), twoClients(t)
	for _, tc := range []struct {
		merged       *trace.Trace
		limit, batch int
	}{
		{six, 12345, 64}, {six, 1, 512}, {six, 7000, 1}, {six, 0, 100}, {six, 0, 192}, {six, 20000, 1536},
		{two, 0, 512}, {two, 50001, 7},
	} {
		merged := tc.merged
		var mu sync.Mutex
		sessions := map[string]*fakeSession{}
		it := merged.Iter()
		res, err := Dispatch(it, tc.limit, tc.batch, func(name string, _ *KeyLog, st *sim.ClientStat) (Session, error) {
			s := &fakeSession{st: st}
			mu.Lock()
			sessions[name] = s
			mu.Unlock()
			return s, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(tc.limit)
		if tc.limit == 0 {
			want = uint64(merged.Len())
		}
		if res.Requests != want || res.Reads != want {
			t.Errorf("limit %d batch %d: Requests=%d, sessions saw %d, want %d", tc.limit, tc.batch, res.Requests, res.Reads, want)
		}
		wantReqs := make(map[string][]trace.Request)
		for _, r := range merged.Reqs[:want] {
			name := merged.Clients[r.Client]
			wantReqs[name] = append(wantReqs[name], r)
		}
		for name, s := range sessions {
			if !s.drained.Load() || !s.closed.Load() {
				t.Errorf("limit %d: session drained=%v closed=%v, want both", tc.limit, s.drained.Load(), s.closed.Load())
			}
			if !slices.Equal(s.got, wantReqs[name]) {
				t.Errorf("limit %d batch %d: client %s got %d requests, not its %d in trace order", tc.limit, tc.batch, name, len(s.got), len(wantReqs[name]))
			}
			for i, n := range s.lens {
				last := i == len(s.lens)-1
				if n < 1 || n > tc.batch || (!last && n != tc.batch) {
					t.Errorf("limit %d batch %d: client %s batch %d of %d has %d requests",
						tc.limit, tc.batch, name, i, len(s.lens), n)
					break
				}
			}
		}
	}
}

// TestDispatchSessionFailure: a session that will not open, or one whose
// Submit fails mid-stream, ends the run with that error; the dispatcher
// neither blocks on the dead session's queue nor drains anyone after the
// failure, and every session that opened is closed.
func TestDispatchSessionFailure(t *testing.T) {
	merged := sixClients(t)
	errOpen := errors.New("cannot open")
	for name, tc := range map[string]struct {
		open   func(name string) (failAt int, err error)
		expect error
	}{
		"open":   {func(name string) (int, error) { return 0, map[string]error{"C": errOpen}[name] }, errOpen},
		"submit": {func(name string) (int, error) { return map[string]int{"D": 5}[name], nil }, errFake},
	} {
		var mu sync.Mutex
		var sessions []*fakeSession
		_, err := Dispatch(merged.Iter(), 0, 16, func(name string, _ *KeyLog, st *sim.ClientStat) (Session, error) {
			failAt, err := tc.open(name)
			if err != nil {
				return nil, err
			}
			s := &fakeSession{st: st, failAt: failAt}
			mu.Lock()
			sessions = append(sessions, s)
			mu.Unlock()
			return s, nil
		})
		if err != tc.expect {
			t.Errorf("%s failure: err = %v, want %v", name, err, tc.expect)
		}
		for _, s := range sessions {
			if !s.closed.Load() {
				t.Errorf("%s failure: a session was left open", name)
			}
			if s.failAt > 0 && s.drained.Load() {
				t.Errorf("%s failure: the failed session was drained", name)
			}
		}
	}
}
