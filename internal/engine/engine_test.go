package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testTrace generates a small seeded TPC-C trace once per test binary.
var testTrace = func() *trace.Trace {
	p, err := workload.PresetByName("DB2_C60")
	if err != nil {
		panic(err)
	}
	p.Requests = 30000
	t, err := workload.Generate(p)
	if err != nil {
		panic(err)
	}
	return t
}()

var testSizes = []int{500, 1000, 2000, 4000}

// serve drives p with every client of tr at once through ServeSource, the
// one in-process serving entry point.
func serve(t *testing.T, p policy.Policy, tr *trace.Trace) sim.Result {
	t.Helper()
	res, err := ServeSource(p, tr.Source(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSweepMatchesSerial is the determinism golden test: every policy's
// sweep out of the parallel Grid must be byte-identical (under a canonical
// encoding) to the serial sim.Sweep output, at any worker count.
func TestSweepMatchesSerial(t *testing.T) {
	clicCfg := core.Config{Window: 5000}
	want := make(map[string][]byte, len(sim.PolicyNames))
	for _, pol := range sim.PolicyNames {
		b, err := json.Marshal(sim.Sweep(sim.Constructor(pol, testTrace, clicCfg), testTrace, testSizes))
		if err != nil {
			t.Fatal(err)
		}
		want[pol] = b
	}
	for _, workers := range []int{0, 1, 3, 16} {
		grid, err := Grid(sim.PolicyNames, testSizes, testTrace, clicCfg, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range sim.PolicyNames {
			got, err := json.Marshal(grid[pol])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[pol]) {
				t.Errorf("%s (workers=%d): parallel sweep differs from serial sim.Sweep\n got: %s\nwant: %s",
					pol, workers, got, want[pol])
			}
		}
	}
}

// TestGrid checks grouping, ordering, and name validation.
func TestGrid(t *testing.T) {
	policies := []string{"LRU", "CLIC", "FIFO"}
	res, err := Grid(policies, testSizes, testTrace, core.Config{Window: 5000}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(policies) {
		t.Fatalf("got %d policies, want %d", len(res), len(policies))
	}
	for _, pol := range policies {
		sweep := res[pol]
		if len(sweep) != len(testSizes) {
			t.Fatalf("%s: got %d results, want %d", pol, len(sweep), len(testSizes))
		}
		for i, r := range sweep {
			want := testSizes[i]
			if pol == "CLIC" {
				want = sim.ClicCapacity(want) // CLIC pays its tracking overhead in pages
			}
			if r.CacheSize != want {
				t.Errorf("%s[%d]: CacheSize = %d, want %d (order not preserved)", pol, i, r.CacheSize, want)
			}
			if r.Requests != uint64(testTrace.Len()) {
				t.Errorf("%s[%d]: Requests = %d, want %d", pol, i, r.Requests, testTrace.Len())
			}
		}
	}
	if _, err := Grid([]string{"LRU", "NOPE"}, testSizes, testTrace, core.Config{}, Options{}); err == nil {
		t.Error("Grid accepted an unknown policy name")
	}
}

// TestRunProgress checks the progress callback at a pool of one and of
// four: serialized, monotone done counts reaching the total exactly once
// each.
func TestRunProgress(t *testing.T) {
	jobs := make([]Job, 9)
	for i := range jobs {
		jobs[i] = Job{New: func() policy.Policy { return core.New(core.Config{Capacity: 100}) }, Trace: testTrace}
	}
	for _, workers := range []int{1, 4} {
		seen := make(map[int]bool)
		last := 0
		res := Run(jobs, Options{Workers: workers, Progress: func(done, total int, r sim.Result) {
			if total != len(jobs) {
				t.Errorf("workers=%d: total = %d, want %d", workers, total, len(jobs))
			}
			if done != last+1 {
				t.Errorf("workers=%d: done jumped from %d to %d", workers, last, done)
			}
			last = done
			if seen[done] {
				t.Errorf("workers=%d: done=%d reported twice", workers, done)
			}
			seen[done] = true
			if r.Policy == "" {
				t.Errorf("workers=%d: progress result missing policy name", workers)
			}
		}})
		if last != len(jobs) || len(res) != len(jobs) {
			t.Errorf("workers=%d: completed %d of %d jobs, %d results", workers, last, len(jobs), len(res))
		}
	}
}

// TestRunEmpty ensures a zero-job run is a no-op, not a hang.
func TestRunEmpty(t *testing.T) {
	if got := Run(nil, Options{}); len(got) != 0 {
		t.Errorf("Run(nil) returned %d results", len(got))
	}
}

// TestServeSource drives a sharded CLIC front with concurrent clients and
// checks the merged accounting: per-client read counts are exact (they
// depend only on the trace) and the totals are consistent.
func TestServeSource(t *testing.T) {
	a := testTrace.Truncate(10000)
	a.Name = "A"
	b := testTrace.Truncate(10000)
	b.Name = "B"
	merged, err := trace.Interleave("AB", a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSharded(core.Config{Capacity: 2000, Window: 2000}, 4)
	res := serve(t, s, merged)

	if res.Requests != uint64(merged.Len()) {
		t.Errorf("Requests = %d, want %d", res.Requests, merged.Len())
	}
	if len(res.PerClient) != 2 {
		t.Fatalf("PerClient has %d entries, want 2", len(res.PerClient))
	}
	// Both clients replay the same requests, so their read counts agree and
	// sum to the total.
	if res.PerClient[0].Reads != res.PerClient[1].Reads {
		t.Errorf("client read counts differ: %d vs %d", res.PerClient[0].Reads, res.PerClient[1].Reads)
	}
	if res.Reads != res.PerClient[0].Reads+res.PerClient[1].Reads {
		t.Errorf("Reads = %d, want sum of per-client %d", res.Reads, res.PerClient[0].Reads+res.PerClient[1].Reads)
	}
	if res.ReadHits != res.PerClient[0].ReadHits+res.PerClient[1].ReadHits {
		t.Errorf("ReadHits = %d, inconsistent with per-client sum", res.ReadHits)
	}
	if res.ReadHits == 0 {
		t.Error("no hits at all; cache is not being exercised")
	}
	if res.Policy != "CLIC/4" || res.CacheSize != 2000 || res.Trace != "AB" {
		t.Errorf("labels (%q, %d, %q), want (CLIC/4, 2000, AB)", res.Policy, res.CacheSize, res.Trace)
	}
	if res.PerClient[0].Name != "A" || res.PerClient[1].Name != "B" {
		t.Errorf("client names %q, %q, want A, B", res.PerClient[0].Name, res.PerClient[1].Name)
	}
}

// TestServeSourceMoreClientsThanShards drives a 2-shard front from 6
// clients, so several client goroutines contend for each shard; under
// -race (the CI configuration) this exercises the combining hand-off in the
// regime the network server runs in. Per-client read counts must match a
// serial replay of each client's subsequence exactly.
func TestServeSourceMoreClientsThanShards(t *testing.T) {
	merged := sixClients(t)
	s := core.NewSharded(core.Config{Capacity: 3000, Window: 3000}, 2)
	res := serve(t, s, merged)

	if len(res.PerClient) != 6 {
		t.Fatalf("PerClient has %d entries, want 6", len(res.PerClient))
	}
	var reads, hits uint64
	for c, st := range res.PerClient {
		wantReads := uint64(0)
		for _, r := range merged.Reqs {
			if int(r.Client) == c && r.Op == trace.Read {
				wantReads++
			}
		}
		if st.Reads != wantReads {
			t.Errorf("client %d Reads = %d, want %d", c, st.Reads, wantReads)
		}
		reads += st.Reads
		hits += st.ReadHits
	}
	if res.Reads != reads || res.ReadHits != hits {
		t.Errorf("totals (%d, %d) disagree with per-client sums (%d, %d)", res.Reads, res.ReadHits, reads, hits)
	}
	if res.ReadHits == 0 {
		t.Error("no hits at all; cache is not being exercised")
	}
	// The Stats snapshot must agree with the per-client accounting.
	st := s.Stats()
	if st.Reads != res.Reads || st.ReadHits != res.ReadHits {
		t.Errorf("Stats (%d reads, %d hits) disagree with result (%d, %d)", st.Reads, st.ReadHits, res.Reads, res.ReadHits)
	}
	if st.Requests != uint64(merged.Len()) {
		t.Errorf("Stats.Requests = %d, want %d", st.Requests, merged.Len())
	}
}

// TestPartitionedGoldenPreRefactor pins CLIC's hit counts on the seeded
// test trace, in exact, top-k and decaying configurations. The plain rows
// are the values measured before the statistics machinery moved out of
// core.Cache into internal/clicstats: a plain cache's learner must
// reproduce the pre-refactor behavior bit for bit. The sharded rows are the shared
// learner's, as its former global mode gave them when it became a sharded
// front's only way to learn.
func TestPartitionedGoldenPreRefactor(t *testing.T) {
	cases := []struct {
		name   string
		cfg    core.Config
		shards int // 0 = plain Cache
		hits   uint64
	}{
		{"plain/exact", core.Config{Capacity: 2970, Window: 5000}, 0, 3718},
		{"plain/topk", core.Config{Capacity: 2970, Window: 5000, TopK: 20}, 0, 3718},
		{"plain/decay", core.Config{Capacity: 2970, Window: 5000, R: 0.5}, 0, 3718},
		{"sharded2/exact", core.Config{Capacity: 2970, Window: 5000}, 2, 3721},
		{"sharded2/topk", core.Config{Capacity: 2970, Window: 5000, TopK: 20}, 2, 3721},
		{"sharded2/decay", core.Config{Capacity: 2970, Window: 5000, R: 0.5}, 2, 3721},
		{"sharded4/exact", core.Config{Capacity: 2970, Window: 5000}, 4, 3710},
		{"sharded4/topk", core.Config{Capacity: 2970, Window: 5000, TopK: 20}, 4, 3710},
		{"sharded4/decay", core.Config{Capacity: 2970, Window: 5000, R: 0.5}, 4, 3710},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p policy.Policy
			if tc.shards == 0 {
				p = core.New(tc.cfg)
			} else {
				p = core.NewSharded(tc.cfg, tc.shards)
			}
			res := sim.Run(p, testTrace)
			if res.Reads != 20973 {
				t.Fatalf("Reads = %d, want 20973 (trace generation changed?)", res.Reads)
			}
			if res.ReadHits != tc.hits {
				t.Errorf("ReadHits = %d, want golden %d", res.ReadHits, tc.hits)
			}
		})
	}
}

// TestServeSourceGlobalSingleClient: with one client, ServeSource is a
// sequential replay, so a 1-shard front, fed by frames, must match the
// plain serial simulation, fed by per-request Access, exactly — the
// engine-path equivalence of the frame path and serial Access.
func TestServeSourceGlobalSingleClient(t *testing.T) {
	tr := testTrace.Truncate(15000)
	cfg := core.Config{Capacity: 2000, Window: 2000}
	want := sim.Run(core.New(cfg), tr)
	got := serve(t, core.NewSharded(cfg, 1), tr)
	if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
		t.Errorf("ServeSource %d/%d hits/reads, serial %d/%d", got.ReadHits, got.Reads, want.ReadHits, want.Reads)
	}
	if got.ReadHits == 0 {
		t.Error("no hits; test is vacuous")
	}
}

// TestServeSourceGlobalMoreClientsThanShards drives a 2-shard front from 6
// clients: client goroutines contend for the shards while rotations take
// and owe the taps' windows, and rotations by one shard must propagate to
// the others' victim heaps. Under -race (the
// CI configuration) this is the engine-path stress test for global
// learning.
func TestServeSourceGlobalMoreClientsThanShards(t *testing.T) {
	merged := sixClients(t)
	s := core.NewSharded(core.Config{Capacity: 3000, Window: 3000}, 2)
	res := serve(t, s, merged)

	if len(res.PerClient) != 6 {
		t.Fatalf("PerClient has %d entries, want 6", len(res.PerClient))
	}
	var reads, hits uint64
	for c, st := range res.PerClient {
		wantReads := uint64(0)
		for _, r := range merged.Reqs {
			if int(r.Client) == c && r.Op == trace.Read {
				wantReads++
			}
		}
		if st.Reads != wantReads {
			t.Errorf("client %d Reads = %d, want %d", c, st.Reads, wantReads)
		}
		reads += st.Reads
		hits += st.ReadHits
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
	if want := merged.Len() / 3000; st.Windows != want {
		t.Errorf("Windows = %d, want exactly %d (shared learner rotates cache-wide)", st.Windows, want)
	}
}

// TestServeSourceOwnerSingleClient is the engine-layer equivalence golden
// test for the two ways into a front: with one client, ServeSource is a
// serial batch replay through one producer, which is bit-identical to
// sim.Run's per-request replay through Sharded.Access — same reads, same
// hits, same snapshot — whether W is longer than the run each AccessBatch
// call serves (frontRun) or the learner rotates inside runs. It fails if no
// W is longer than the run, so a re-tune of the run cannot drop that case.
func TestServeSourceOwnerSingleClient(t *testing.T) {
	const shards = 4
	windows := []int{10000, 5000, 1000, 333}
	front := core.NewSharded(core.Config{Capacity: 3000}, shards)
	front.Close()
	if run := frontRun(front, 0); slices.Max(windows) <= run {
		t.Fatalf("no W is longer than the %d-request run on %d shards", run, shards)
	}
	for _, w := range windows {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			cfg := core.Config{Capacity: 3000, Window: w}
			perRequest := core.NewSharded(cfg, shards)
			want := sim.Run(perRequest, testTrace)
			framed := core.NewSharded(cfg, shards)
			defer framed.Close()
			got := serve(t, framed, testTrace)

			if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
				t.Errorf("ServeSource %d/%d hits/reads, per-request %d/%d", got.ReadHits, got.Reads, want.ReadHits, want.Reads)
			}
			if got.ReadHits == 0 {
				t.Error("no hits at all; test is vacuous")
			}
			if fs, ps := framed.Stats(), perRequest.Stats(); fs != ps {
				t.Errorf("Stats drift:\nServeSource %+v\nper-request %+v", fs, ps)
			}
			if fs := framed.Stats(); fs.Windows != testTrace.Len()/w {
				t.Errorf("Windows = %d, want %d", fs.Windows, testTrace.Len()/w)
			}
		})
	}
}
