package engine

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

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
// observes each AccessBatch call exactly once — Σ⌈n_c/batch⌉ over the
// clients — and a policy without batches is not timed.
func TestServeIteratorTimesEveryBatch(t *testing.T) {
	merged := sixClients(t)
	for _, batch := range []int{0, 100} {
		size := batch
		if size == 0 {
			size = core.DefaultAccessBatch
		}
		var want uint64
		for _, reqs := range merged.SplitClients() {
			want += uint64((len(reqs) + size - 1) / size)
		}
		s := core.NewSharded(core.Config{Capacity: 2000, Window: 2000}, 4)
		var lat metrics.Histogram
		if _, err := ServeIterator(s, merged.Iter(), batch, &lat); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if got := lat.Summary().Count; got != want {
			t.Errorf("batch %d: %d latency observations, want one per AccessBatch call, %d", batch, got, want)
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
