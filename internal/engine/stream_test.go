package engine

import (
	"errors"
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

// frontRun is the run ServeIterator serves on front s when given batch:
// the smallest multiple of batch (0 selects core.DefaultAccessBatch) that
// holds max(runRequests, s.VisitBatch()) requests.
func frontRun(s *core.Sharded, batch int) int {
	if batch <= 0 {
		batch = core.DefaultAccessBatch
	}
	return roundUp(max(runRequests, s.VisitBatch()), batch)
}

// TestServeIteratorTimesEveryBatch: with a histogram, ServeIterator
// observes each AccessBatch call exactly once, and it makes one call per
// run sized to the front (frontRun) — Σ⌈n_c/run⌉ over the clients — and a
// policy without batches is not timed. On one shard runRequests sets the
// run; on many, at least 8 and enough that their visits exceed
// runRequests, the front's VisitBatch does, so the test tells a
// front-sized run from the dispatcher's floor whatever the visit size.
func TestServeIteratorTimesEveryBatch(t *testing.T) {
	merged := twoClients(t)
	cfg := core.Config{Capacity: 2000, Window: 2000}
	one := core.NewSharded(cfg, 1)
	one.Close()
	if one.VisitBatch() >= runRequests {
		t.Fatalf("one shard's VisitBatch %d is not below runRequests %d; no case runs at the dispatcher's floor", one.VisitBatch(), runRequests)
	}
	many := max(8, runRequests/one.VisitBatch()+1)
	for _, tc := range []struct{ shards, batch int }{{many, 0}, {many, 100}, {1, 0}, {1, 100}} {
		s := core.NewSharded(cfg, tc.shards)
		run := frontRun(s, tc.batch)
		var want uint64
		for _, reqs := range merged.SplitClients() {
			want += uint64((len(reqs) + run - 1) / run)
		}
		var lat metrics.Histogram
		if _, err := ServeIterator(s, merged.Iter(), tc.batch, &lat); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if got := lat.Summary().Count; got != want {
			t.Errorf("%d shards, batch %d: %d latency observations, want one per %d-request run, %d", tc.shards, tc.batch, got, run, want)
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

// TestDispatchBoundsClientBuffers: a client's queue is bounded in
// requests, so the run buffers a client has out at once — queued, in its
// session and being filled — are at most max(1, ⌈queuedRequests/run⌉) + 2,
// at the wire drivers' runs (runRequests) and at ServeIterator's on 8
// shards (frontRun). Each client has two runs more than its bound. The
// sessions hold their first run for 250 ms, so that the scan stops for
// want of queue space and a client reaches its bound: a scan blocked on a
// full queue makes no event a test can wait on, and a gate the iterator
// closed would open before a deeper queue filled. A session is handed
// whole runs (the batch is the run), told apart by their first element.
func TestDispatchBoundsClientBuffers(t *testing.T) {
	front := core.NewSharded(core.Config{Capacity: 2000}, 8)
	front.Close()
	type bound struct{ run, most int }
	var cases []bound
	perClient := 0
	for _, run := range []int{runRequests, frontRun(front, 0)} {
		most := max(1, (queuedRequests+run-1)/run) + 2
		cases = append(cases, bound{run, most})
		perClient = max(perClient, (most+2)*run)
	}
	two := trace.New("BUFS", 0)
	two.Clients = []string{"A", "B"}
	for i := range 2 * perClient {
		two.AppendReq(trace.Request{Page: uint64(i), Client: uint8(i % 2)})
	}
	for _, tc := range cases {
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

// TestDispatchConcurrentReplays: Dispatch calls running at once share no
// state, so every session gets exactly its client's requests in trace
// order.
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
