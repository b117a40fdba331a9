package cluster_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hint"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestClusterReplaySourceFile streams a v2 trace file through a cluster.
// Small blocks force dictionary sections to arrive mid-stream, so the
// routers must Announce new keys to every node ahead of the batches that
// use them. Per-client read counts are exact; they must match the trace's
// own.
func TestClusterReplaySourceFile(t *testing.T) {
	spec, err := workload.ParseSpec("DB2_C60*3:15000")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stream.clic")
	w, err := trace.Create(path, tr.Name, tr.PageSize, tr.Clients, trace.WriterOptions{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	d := w.HintDict()
	for _, r := range tr.Reqs {
		// Intern lazily (in ID order, so IDs are preserved) so dictionary
		// sections interleave with request blocks instead of arriving in one
		// up-front section.
		for id := d.Len(); id <= int(r.Hint); id++ {
			d.InternKey(tr.Dict.Key(hint.ID(id)))
		}
		w.AppendReq(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	h := startHarness(t, cluster.HarnessConfig{
		Nodes: 2,
		Cache: core.Config{Capacity: 2000, Window: 2000},
	})
	got, err := cluster.ReplaySource(h.Nodes(), trace.FileSource(path), cluster.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if got.Requests != uint64(tr.Len()) {
		t.Errorf("Requests = %d, want %d", got.Requests, tr.Len())
	}
	if got.Policy != "2×CLIC" || got.CacheSize != 2000 {
		t.Errorf("label %s/%d, want 2×CLIC/2000", got.Policy, got.CacheSize)
	}
	if len(got.PerClient) != len(tr.Clients) {
		t.Fatalf("PerClient has %d entries, want %d", len(got.PerClient), len(tr.Clients))
	}
	wantReads := make([]uint64, len(tr.Clients))
	for _, r := range tr.Reqs {
		if r.Op == trace.Read {
			wantReads[r.Client]++
		}
	}
	for c := range got.PerClient {
		if got.PerClient[c].Name != tr.Clients[c] {
			t.Errorf("client %d named %q, want %q", c, got.PerClient[c].Name, tr.Clients[c])
		}
		if got.PerClient[c].Reads != wantReads[c] {
			t.Errorf("client %d: %d reads, want %d", c, got.PerClient[c].Reads, wantReads[c])
		}
	}
	if got.ReadHits == 0 {
		t.Error("no hits; test is vacuous")
	}

	// The file really is the v2 format with an incremental dictionary.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	magic := make([]byte, 8)
	if _, err := f.Read(magic); err != nil || string(magic) != "CLICTRC2" {
		t.Fatalf("file magic %q, err %v", magic, err)
	}
}

// TestClusterReplaySourceGenerator streams straight from a live workload
// generator into a cluster — no trace in RAM or on disk anywhere.
func TestClusterReplaySourceGenerator(t *testing.T) {
	spec, err := workload.ParseSpec("DB2_C60*2:10000")
	if err != nil {
		t.Fatal(err)
	}
	h := startHarness(t, cluster.HarnessConfig{
		Nodes: 2,
		Cache: core.Config{Capacity: 1500, Window: 1500},
	})
	res, err := cluster.ReplaySource(h.Nodes(), spec.Source(), cluster.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 10000 {
		t.Errorf("Requests = %d, want 10000", res.Requests)
	}
	if len(res.PerClient) != 2 {
		t.Fatalf("PerClient has %d entries, want 2", len(res.PerClient))
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
