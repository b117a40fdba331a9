// Summary-exchange tests: absorption into a server's shared learner.
package server_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netclient"
	"repro/internal/server"
	"repro/internal/wire"
)

func testSummary() wire.Summary {
	return wire.Summary{Node: "peer", Round: 1, Entries: []wire.SummaryEntry{
		{Key: "reqtype=seq", N: 10, Nr: 5, Dsum: 20},
		{Key: "reqtype=rand", N: 4, Nr: 1, Dsum: 100},
	}}
}

// TestSummaryAbsorbed drives a summary frame into a server and watches it
// land in the cluster accounting and /metrics.
func TestSummaryAbsorbed(t *testing.T) {
	srv := startServer(t, server.Config{
		Cache:  core.Config{Capacity: 500, Window: 100},
		Shards: 2,
		Node:   "n0",
	})
	conn, err := netclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if ack, err := conn.Hello("peer", nil); err != nil || ack.Version != wire.Version {
		t.Fatalf("handshake: acked version %d, err %v; want %d", ack.Version, err, wire.Version)
	}
	if err := conn.SendSummary(testSummary()); err != nil {
		t.Fatal(err)
	}
	// The frame is handled asynchronously; no reply is sent.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl := srv.Snapshot(0).Cluster
		if cl.SummariesAbsorbed == 1 {
			if cl.Node != "n0" || cl.PendingHintSets != 2 {
				t.Fatalf("cluster snapshot %+v, want node n0 with 2 pending hint sets", cl)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("summary never absorbed: %+v", cl)
		}
		time.Sleep(time.Millisecond)
	}
	samples := scrape(t, srv)
	if got := samples["clic_cluster_summaries_absorbed_total"]; got != 1 {
		t.Errorf("clic_cluster_summaries_absorbed_total = %v, want 1", got)
	}
	if got := samples["clic_cluster_pending_hint_sets"]; got != 2 {
		t.Errorf("clic_cluster_pending_hint_sets = %v, want 2", got)
	}
}
