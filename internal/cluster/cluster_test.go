// Cluster integration tests: real servers and routers over 127.0.0.1.
// The single-node golden test pins the router to the direct netclient
// path bit for bit; the serial-replay test pins cluster determinism; the
// concurrent tests exercise the same machinery under -race.
package cluster_test

import (
	"fmt"
	"math"
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

// TestRouterFillsNodeFrames: with default options a router batch carries
// wire.DefaultBatch requests per node, so from the first batch the nodes'
// frames hold about wire.DefaultBatch requests each, as a direct
// connection's do: across the nodes within 5 % of it, and on every node
// well above what a third of a wire.DefaultBatch router batch would give.
// The ring's shares differ, so one node's mean need not be near 512.
func TestRouterFillsNodeFrames(t *testing.T) {
	spec, err := workload.ParseSpec("DB2_C60*2:200000")
	if err != nil {
		t.Fatal(err)
	}
	h := startHarness(t, cluster.HarnessConfig{
		Nodes:  3,
		Cache:  core.Config{Capacity: 3000, Window: 3000},
		Shards: 2,
	})
	res, err := cluster.ReplaySource(h.Nodes(), spec.Source(), cluster.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A node counts a frame after writing its results, so the last ones
	// may be counted after the replay returns: wait until the nodes'
	// frames hold every request, and then read counts settled by then.
	served := func() (n uint64) {
		for i := 0; i < 3; i++ {
			n += h.Server(i).Snapshot(0).Histograms.BatchRequests.Sum
		}
		return n
	}
	for deadline := time.Now().Add(5 * time.Second); served() < res.Requests && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	var frames, reqs uint64
	for i := 0; i < 3; i++ {
		br := h.Server(i).Snapshot(0).Histograms.BatchRequests
		t.Logf("node%d: %d frames, mean %.0f requests, max %.0f", i, br.Count, br.Mean, br.Max)
		frames += br.Count
		reqs += br.Sum
		if br.Mean <= 400 {
			t.Errorf("node%d served %d frames of %.0f requests on average, want more than 400", i, br.Count, br.Mean)
		}
	}
	if mean := float64(reqs) / float64(frames); math.Abs(mean-wire.DefaultBatch) > 0.05*wire.DefaultBatch {
		t.Errorf("nodes served %d requests in %d frames, %.1f per frame, want within 5%% of %d",
			reqs, frames, mean, wire.DefaultBatch)
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

// TestReplaySerialDeterministic boots the same cluster twice and replays
// the same trace serially through each: results — totals and each node's
// rotation count — must be identical, which is what lets the cluster
// ablation pin golden numbers.
func TestReplaySerialDeterministic(t *testing.T) {
	run := func() (got struct {
		reads, hits uint64
		rounds      [3]int
	}) {
		h := startHarness(t, cluster.HarnessConfig{
			Nodes: 3,
			Cache: core.Config{Capacity: 3000, Window: 3000},
		})
		res, err := h.ReplaySerial(testTrace)
		if err != nil {
			t.Fatal(err)
		}
		got.reads, got.hits = res.Reads, res.ReadHits
		for i := 0; i < 3; i++ {
			got.rounds[i] = h.Server(i).Cache().Global().Windows()
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
	for i, r := range a.rounds {
		if r == 0 {
			t.Errorf("node %d never rotated its window", i)
		}
	}
}

// TestClusterConcurrent replays an interleaved trace with more clients
// than nodes through a cluster with ReplaySource — the -race stress:
// concurrent routers fan batches to every node. Only order-free
// quantities are asserted.
func TestClusterConcurrent(t *testing.T) {
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
		Nodes:  3,
		Cache:  core.Config{Capacity: 3000, Window: 3000},
		Shards: 2,
	})
	res, err := cluster.ReplaySource(h.Nodes(), merged.Source(), cluster.ReplayOptions{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if w := h.Server(i).Cache().Global().Windows(); w == 0 {
			t.Errorf("node %d never rotated its window", i)
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
