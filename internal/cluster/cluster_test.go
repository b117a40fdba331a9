// Cluster integration tests: real servers and routers over 127.0.0.1.
// The single-node golden test pins the router to the direct netclient
// path bit for bit; the serial-replay test pins cluster determinism; the
// concurrent tests exercise the same machinery under -race.
package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netclient"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
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

func startHarness(t *testing.T, cfg cluster.HarnessConfig) *cluster.Harness {
	t.Helper()
	h, err := cluster.StartHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// TestSingleNodeGolden is the router equivalence test: a 1-node cluster
// routes every request to its only node in submission order, so replaying
// a single-client trace through the router must be bit-identical — hits,
// misses, labels, server-side counters, outqueue — to
// netclient.ReplaySource against an identically configured standalone
// server.
func TestSingleNodeGolden(t *testing.T) {
	cfg := core.Config{Capacity: 3000, Window: 5000}
	const shards = 4

	direct := startDirect(t, server.Config{Cache: cfg, Shards: shards})
	want, err := netclient.ReplaySource(direct.Addr().String(), testTrace.Source(), netclient.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}

	h := startHarness(t, cluster.HarnessConfig{Nodes: 1, Cache: cfg, Shards: shards})
	got, err := cluster.ReplaySource(h.Nodes(), testTrace.Source(), cluster.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
		t.Errorf("router %d/%d hits/reads, direct %d/%d", got.ReadHits, got.Reads, want.ReadHits, want.Reads)
	}
	if got.Requests != want.Requests || got.Policy != want.Policy || got.CacheSize != want.CacheSize {
		t.Errorf("labels (%d, %q, %d), want (%d, %q, %d)",
			got.Requests, got.Policy, got.CacheSize, want.Requests, want.Policy, want.CacheSize)
	}
	if got.ReadHits == 0 {
		t.Error("no hits at all; the cluster path is vacuous")
	}
	ds, cs := direct.Cache().Stats(), h.Server(0).Cache().Stats()
	if ds != cs {
		t.Errorf("server cores diverged: direct %+v, cluster %+v", ds, cs)
	}
	if do, co := direct.Cache().OutqueueLen(), h.Server(0).Cache().OutqueueLen(); do != co {
		t.Errorf("outqueue depth %d behind router, %d direct", co, do)
	}
}

// TestRouterFillsNodeFrames: with default options a router sizes each
// node's share of a batch, not the batch, so once the sizer has ramped a
// node's frames hold about wire.DefaultBatch requests each, as a direct
// connection's do. Sizing the router batch instead would leave every node
// a third of it, about 170. The stream is long enough that the sizer's
// ramp from 64, and the windows it holds when host noise makes a round
// trip look degraded, stay a small share of the frames.
func TestRouterFillsNodeFrames(t *testing.T) {
	spec, err := workload.ParseSpec("DB2_C60*2:1000000")
	if err != nil {
		t.Fatal(err)
	}
	h := startHarness(t, cluster.HarnessConfig{
		Nodes:  3,
		Cache:  core.Config{Capacity: 3000, Window: 3000},
		Shards: 2,
	})
	if _, err := cluster.ReplaySource(h.Nodes(), spec.Source(), cluster.ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		br := h.Server(i).Snapshot(0).Histograms.BatchRequests
		t.Logf("node%d: %d frames, mean %.0f requests, max %.0f", i, br.Count, br.Mean, br.Max)
		if br.Mean <= wire.DefaultBatch/2 {
			t.Errorf("node%d served %d frames of %.0f requests on average, want more than %d",
				i, br.Count, br.Mean, wire.DefaultBatch/2)
		}
	}
}

func startDirect(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv := server.New(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestReplaySerialDeterministic boots the same merging cluster twice and
// replays the same trace serially through each: results — totals,
// per-client accounting, merge-round and delivery counts — must be
// identical, which is what lets the cluster ablation pin golden numbers.
func TestReplaySerialDeterministic(t *testing.T) {
	run := func() (got struct {
		reads, hits uint64
		delivered   uint64
		rounds      [3]uint64
		absorbed    [3]uint64
	}) {
		h := startHarness(t, cluster.HarnessConfig{
			Nodes:   3,
			Cache:   core.Config{Capacity: 3000, Window: 3000},
			Merging: true,
		})
		res, err := h.ReplaySerial(testTrace)
		if err != nil {
			t.Fatal(err)
		}
		got.reads, got.hits = res.Reads, res.ReadHits
		got.delivered = h.Coordinator().Delivered()
		for i := 0; i < 3; i++ {
			cl := h.Server(i).Snapshot(0).Cluster
			got.rounds[i], got.absorbed[i] = cl.MergeRounds, cl.SummariesAbsorbed
		}
		if want := "3×CLIC"; res.Policy != want {
			t.Errorf("Policy = %q, want %q", res.Policy, want)
		}
		if res.CacheSize != 3000 {
			t.Errorf("CacheSize = %d, want 3000 (split capacity sums back)", res.CacheSize)
		}
		return got
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("serial cluster replay not deterministic:\n  first  %+v\n  second %+v", a, b)
	}
	if a.hits == 0 {
		t.Error("no hits at all")
	}
	if a.delivered == 0 {
		t.Error("no summaries delivered; merging never happened")
	}
	for i, r := range a.rounds {
		if r == 0 {
			t.Errorf("node %d never rotated its window", i)
		}
		if a.absorbed[i] == 0 {
			t.Errorf("node %d never absorbed a peer summary", i)
		}
	}
}

// TestClusterConcurrent replays an interleaved trace with more clients
// than nodes through a merging cluster with ReplaySource — the -race
// stress: concurrent routers fan batches to every node. It runs twice:
// first with the coordinator holding summaries until one Step after the
// replay, then delivering at publish time as the benchmark runs it, so
// that one node's rotation absorbs into another while that one may be
// rotating into the first. Only order-free quantities are asserted.
func TestClusterConcurrent(t *testing.T) {
	for _, immediate := range []bool{false, true} {
		clusterConcurrent(t, immediate)
	}
}

func clusterConcurrent(t *testing.T, immediate bool) {
	parts := make([]*trace.Trace, 5)
	for i := range parts {
		parts[i] = testTrace.Truncate(6000)
		parts[i].Name = fmt.Sprintf("c%d", i)
	}
	merged, err := trace.Interleave("FIVE", parts...)
	if err != nil {
		t.Fatal(err)
	}
	h := startHarness(t, cluster.HarnessConfig{
		Nodes:   3,
		Cache:   core.Config{Capacity: 3000, Window: 3000},
		Shards:  2,
		Merging: true,
	})
	h.Coordinator().SetImmediate(immediate)
	res, err := cluster.ReplaySource(h.Nodes(), merged.Source(), cluster.ReplayOptions{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !immediate {
		h.Coordinator().Step()
	}
	for i := 0; i < 3; i++ {
		if cl := h.Server(i).Snapshot(0).Cluster; cl.SummariesAbsorbed == 0 {
			t.Errorf("immediate=%v: node %d absorbed no summaries (%+v)", immediate, i, cl)
		}
	}
	if res.Requests != uint64(len(merged.Reqs)) {
		t.Errorf("Requests = %d, want %d", res.Requests, len(merged.Reqs))
	}
	if res.ReadHits == 0 {
		t.Error("no hits at all")
	}
	for c := range res.PerClient {
		var wantReads uint64
		for _, r := range merged.Reqs {
			if int(r.Client) == c && r.Op == trace.Read {
				wantReads++
			}
		}
		if res.PerClient[c].Reads != wantReads {
			t.Errorf("client %d Reads = %d, want %d", c, res.PerClient[c].Reads, wantReads)
		}
	}
	// The nodes' own accounting must sum to the client-side totals.
	var reads, hits uint64
	for i := 0; i < 3; i++ {
		st := h.Server(i).Cache().Stats()
		reads += st.Reads
		hits += st.ReadHits
	}
	if reads != res.Reads || hits != res.ReadHits {
		t.Errorf("nodes account %d/%d reads/hits, clients %d/%d", reads, hits, res.Reads, res.ReadHits)
	}
}

// TestCoordinator pins the exchanger's stepped and immediate semantics
// against two directly-constructed servers.
func TestCoordinator(t *testing.T) {
	coord := cluster.NewCoordinator(2)
	srvs := make([]*server.Server, 2)
	for i := range srvs {
		srvs[i] = server.New(server.Config{
			Cache:     core.Config{Capacity: 100, Window: 100},
			Shards:    1,
			Node:      fmt.Sprintf("node%d", i),
			OnSummary: coord.Publisher(i),
		})
		coord.Register(i, srvs[i])
		defer srvs[i].Close()
	}
	sum := wire.Summary{Node: "node0", Round: 1, Entries: []wire.SummaryEntry{{Key: "k=1", N: 4, Nr: 2, Dsum: 8}}}

	coord.Publisher(0)(sum)
	if coord.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", coord.Pending())
	}
	if n := coord.Step(); n != 1 {
		t.Fatalf("Step delivered %d, want 1", n)
	}
	if got := srvs[1].Snapshot(0).Cluster.SummariesAbsorbed; got != 1 {
		t.Errorf("peer absorbed %d summaries, want 1", got)
	}
	if got := srvs[0].Snapshot(0).Cluster.SummariesAbsorbed; got != 0 {
		t.Errorf("origin absorbed its own summary (%d)", got)
	}

	coord.SetImmediate(true)
	coord.Publisher(1)(wire.Summary{Node: "node1", Round: 1})
	if got := srvs[0].Snapshot(0).Cluster.SummariesAbsorbed; got != 1 {
		t.Errorf("immediate mode: origin 1's summary not delivered (absorbed %d)", got)
	}
	if coord.Pending() != 0 {
		t.Errorf("Pending = %d after immediate delivery", coord.Pending())
	}
	if coord.Delivered() != 2 {
		t.Errorf("Delivered = %d, want 2", coord.Delivered())
	}
}

// TestGossip ships a summary over real TCP into a server.
func TestGossip(t *testing.T) {
	srv := startDirect(t, server.Config{
		Cache:  core.Config{Capacity: 100, Window: 100},
		Shards: 1,
	})
	g := cluster.NewGossip([]string{srv.Addr().String()})
	g.Publish(wire.Summary{Node: "peer", Round: 1, Entries: []wire.SummaryEntry{{Key: "k=1", N: 4, Nr: 2, Dsum: 8}}})
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot(0).Cluster.SummariesAbsorbed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("summary never arrived (published %d, dropped %d)", g.Published(), g.Dropped())
		}
		time.Sleep(time.Millisecond)
	}
	g.Close()
	if g.Published() != 1 || g.Dropped() != 0 {
		t.Errorf("published %d dropped %d, want 1/0", g.Published(), g.Dropped())
	}
}
