package engine

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
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

// fakeSession is a Session that only counts and records, failing its
// failAt-th Submit (0 = never), for driving Dispatch without a cache behind
// it. With grow > 0 its BatchSize doubles after every grow-th Submit.
type fakeSession struct {
	st      *sim.ClientStat
	batch   int
	grow    int
	failAt  int
	submits int
	// sizes holds BatchSize as each Submit found it, lens each Submit's
	// length, and got every request submitted, in order.
	sizes   []int
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
	s.sizes = append(s.sizes, s.batch)
	s.lens = append(s.lens, len(reqs))
	s.got = append(s.got, reqs...)
	s.st.Reads += uint64(len(reqs)) // count every request, read or not
	if s.grow > 0 && s.submits%s.grow == 0 {
		s.batch *= 2
	}
	return nil
}
func (s *fakeSession) BatchSize() int { return s.batch }
func (s *fakeSession) Drain() error   { s.drained.Store(true); return nil }
func (s *fakeSession) Close() error   { s.closed.Store(true); return nil }

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
// batches carry its requests in trace order, and each batch respects the
// session's size: never empty, never above the size current at its Submit,
// and with a fixed size exactly that size except the client's last. The
// sizes include ones that do not divide core.DefaultAccessBatch and ones
// above it, and a session whose size doubles as it goes.
func TestDispatchLimit(t *testing.T) {
	merged := sixClients(t)
	for _, tc := range []struct{ limit, batch, grow int }{
		{12345, 64, 0}, {1, 512, 0}, {7000, 1, 0}, {0, 100, 0},
		{0, 192, 0}, {20000, 1536, 0}, {0, 1, 4}, {10000, 3, 5},
	} {
		var mu sync.Mutex
		sessions := map[string]*fakeSession{}
		it := merged.Iter()
		res, err := Dispatch(it, tc.limit, tc.batch, func(name string, _ *KeyLog, st *sim.ClientStat) (Session, error) {
			s := &fakeSession{st: st, batch: tc.batch, grow: tc.grow}
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
				if n < 1 || n > s.sizes[i] || (tc.grow == 0 && !last && n != tc.batch) {
					t.Errorf("limit %d batch %d grow %d: client %s batch %d of %d has %d requests, size %d",
						tc.limit, tc.batch, tc.grow, name, i, len(s.lens), n, s.sizes[i])
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
			s := &fakeSession{st: st, batch: 16, failAt: failAt}
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
