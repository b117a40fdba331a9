// Failure-path and naming tests for the one dispatcher (engine.Dispatch),
// run through all three layers that sit on it — this package can reach
// every one of them.
package cluster_test

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netclient"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// layers runs a source through each serve/replay entry point against a
// fresh cache of the same shape. limit is ignored in-process, where the
// entry point has no such option.
var layers = []struct {
	name string
	run  func(t *testing.T, src trace.Source, limit int) (sim.Result, error)
}{
	{"engine", func(t *testing.T, src trace.Source, _ int) (sim.Result, error) {
		return engine.ServeSource(core.NewSharded(core.Config{Capacity: 2000, Window: 2000}, 2), src, 0)
	}},
	{"netclient", func(t *testing.T, src trace.Source, limit int) (sim.Result, error) {
		srv := startDirect(t, server.Config{Cache: core.Config{Capacity: 2000, Window: 2000}, Shards: 2})
		return netclient.ReplaySource(srv.Addr().String(), src, netclient.ReplayOptions{Limit: limit})
	}},
	{"cluster", func(t *testing.T, src trace.Source, limit int) (sim.Result, error) {
		h := startHarness(t, cluster.HarnessConfig{Nodes: 2, Cache: core.Config{Capacity: 2000, Window: 2000}})
		return cluster.ReplaySource(h.Nodes(), src, cluster.ReplayOptions{Limit: limit})
	}},
}

// threeClients interleaves three copies of the test trace's prefix.
func threeClients(t *testing.T) *trace.Trace {
	t.Helper()
	parts := make([]*trace.Trace, 3)
	for i := range parts {
		parts[i] = testTrace.Truncate(6000)
		parts[i].Name = fmt.Sprintf("c%d", i)
	}
	merged, err := trace.Interleave("THREE", parts...)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

var errScan = errors.New("scan failed mid-stream")

// hostileSource wraps an in-memory trace's iterator: it stops with errScan
// after failAfter requests (0 = never) and admits to only the first
// `named` client names.
type hostileSource struct {
	tr        *trace.Trace
	failAfter int
	named     int
}

func (s hostileSource) Label() string { return s.tr.Name }
func (s hostileSource) Iter() (trace.Iterator, error) {
	return &hostileIter{Iterator: s.tr.Iter(), src: s}, nil
}

type hostileIter struct {
	trace.Iterator
	src     hostileSource
	scanned int
	err     error
}

func (it *hostileIter) Next() []trace.Request {
	if it.src.failAfter > 0 && it.scanned == it.src.failAfter {
		it.err = errScan
		return nil
	}
	run := it.Iterator.Next()
	if it.src.failAfter > 0 {
		run = run[:min(len(run), it.src.failAfter-it.scanned)]
	}
	it.scanned += len(run)
	return run
}
func (it *hostileIter) Err() error        { return it.err }
func (it *hostileIter) Clients() []string { return it.Iterator.Clients()[:it.src.named] }

// TestLayersIteratorError: a source that fails mid-scan surfaces its own
// error from every layer, not a partial result.
func TestLayersIteratorError(t *testing.T) {
	merged := threeClients(t)
	for _, l := range layers {
		res, err := l.run(t, hostileSource{tr: merged, failAfter: 9000, named: 3}, 0)
		if err != errScan {
			t.Errorf("%s: err = %v (result %+v), want the iterator's error", l.name, err, res)
		}
	}
}

// TestLayersUnnamedClients: clients the source has no name for are called
// client<i> at every layer.
func TestLayersUnnamedClients(t *testing.T) {
	merged := threeClients(t)
	for _, l := range layers {
		res, err := l.run(t, hostileSource{tr: merged, named: 1}, 0)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		var got []string
		for _, st := range res.PerClient {
			got = append(got, st.Name)
		}
		if fmt.Sprint(got) != "[c0 client1 client2]" {
			t.Errorf("%s: clients named %v, want [c0 client1 client2]", l.name, got)
		}
	}
}

// TestLayersLimit: Limit stops the networked replays at exactly N requests,
// also when N is not a multiple of any batch size.
func TestLayersLimit(t *testing.T) {
	merged := threeClients(t)
	for _, l := range layers[1:] {
		res, err := l.run(t, merged.Source(), 7777)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		var reads uint64
		for _, r := range merged.Reqs[:7777] {
			if r.Op == trace.Read {
				reads++
			}
		}
		if res.Requests != 7777 || res.Reads != reads {
			t.Errorf("%s: Requests = %d with %d reads, want 7777 with %d", l.name, res.Requests, res.Reads, reads)
		}
	}
}

// TestLayersEmptySource: a replay of a source with no requests opens no
// session, so neither networked replay has a server to name: Policy and
// CacheSize stay unset.
func TestLayersEmptySource(t *testing.T) {
	empty := trace.New("EMPTY", 8192)
	for _, l := range layers[1:] {
		res, err := l.run(t, empty.Source(), 0)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if res.Requests != 0 || res.Policy != "" || res.CacheSize != 0 {
			t.Errorf("%s: Requests %d, Policy %q, CacheSize %d; want 0, \"\", 0",
				l.name, res.Requests, res.Policy, res.CacheSize)
		}
	}
}

// TestClusterDialError: a node with nothing listening fails the replay with
// the dial error.
func TestClusterDialError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	h := startHarness(t, cluster.HarnessConfig{Nodes: 1, Cache: core.Config{Capacity: 500}})
	nodes := append(h.Nodes(), cluster.Node{Name: "ghost", Addr: dead})
	_, err = cluster.ReplaySource(nodes, testTrace.Source(), cluster.ReplayOptions{})
	var opErr *net.OpError
	if !errors.As(err, &opErr) || opErr.Op != "dial" {
		t.Fatalf("err = %v, want the dial error", err)
	}
}

// TestClusterNodeClosedMidReplay: one node of three going away while three
// routers are mid-stream ends the replay with an error that names the node
// — the dispatcher does not block on the dead routers' queues — and no
// goroutine outlives the cluster. It runs lock-step single-request
// batches, and the default wire.DefaultBatch per-node frames at the
// derived depth (3 per node at 3 nodes).
func TestClusterNodeClosedMidReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  cluster.ReplayOptions
	}{
		{"lockstep", cluster.ReplayOptions{BatchSize: 1, Depth: 1}},
		{"default", cluster.ReplayOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) { nodeClosedMidReplay(t, tc.opt) })
	}
}

func nodeClosedMidReplay(t *testing.T, opt cluster.ReplayOptions) {
	// Long enough that the close below always lands mid-stream, even at
	// full frames.
	const total = 600_000
	spec, err := workload.ParseSpec(fmt.Sprintf("DB2_C60*3:%d", total))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	h, err := cluster.StartHarness(cluster.HarnessConfig{Nodes: 3, Cache: core.Config{Capacity: 3000, Window: 3000}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cluster.ReplaySource(h.Nodes(), spec.Source(), opt)
		done <- err
	}()
	// Close node1 once every router has had a batch answered by it, so the
	// failure lands on pipelines in flight, not on a dial.
	for snap := h.Server(1).Snapshot(0); len(snap.Clients) < 3 || snap.Core.Requests < 100; snap = h.Server(1).Snapshot(0) {
		time.Sleep(time.Millisecond)
	}
	h.Server(1).Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("replay through a closed node returned no error")
		} else if !strings.Contains(err.Error(), "node1") {
			t.Errorf("err = %v, want it to name the closed node1", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("replay still blocked 30s after the node closed")
	}
	var served uint64
	for i := 0; i < 3; i++ {
		served += h.Server(i).Cache().Stats().Requests
	}
	if served >= total {
		t.Fatalf("nodes served all %d requests; the test closed nothing mid-stream", served)
	}
	h.Close()
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > base; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Errorf("%d goroutines after the failed replay, %d before", n, base)
	}
}
