// Observability tests: a real server, a real in-process client over
// 127.0.0.1, and the /metrics, /stats and timeline surfaces checked
// end to end.
package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netclient"
	"repro/internal/server"
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

func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv := server.New(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.ListenAdmin("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// scrape fetches /metrics and parses the sample lines into name{labels} →
// value, skipping comments.
func scrape(t *testing.T, srv *server.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + srv.AdminAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEndpoint is the acceptance check for the exposition layer:
// after a loopback replay, /metrics must carry live series from all four
// instrumented layers — cache, wire, server, and the in-process netclient.
func TestMetricsEndpoint(t *testing.T) {
	const shards = 4
	srv := startServer(t, server.Config{
		Cache:  core.Config{Capacity: 2000, Window: 4000},
		Shards: shards,
	})
	tr := testTrace.Truncate(16000)
	res, err := netclient.ReplaySource(srv.Addr().String(), tr.Source(), netclient.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The server sees the replay's connection close on its own goroutine,
	// some time after Replay returns: scrape until it has.
	samples := scrape(t, srv)
	for deadline := time.Now().Add(5 * time.Second); samples["clic_server_connections_active"] != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		samples = scrape(t, srv)
	}
	// A scrape is not a snapshot: the one that saw the connection gone may
	// have read the batch series while its writer was still counting the
	// last batch. The next one reads only settled values.
	samples = scrape(t, srv)

	// Core family: totals must agree exactly with the replay accounting.
	if got := samples["clic_cache_reads_total"]; got != float64(res.Reads) {
		t.Errorf("clic_cache_reads_total = %v, want %d", got, res.Reads)
	}
	if got := samples["clic_cache_read_hits_total"]; got != float64(res.ReadHits) || got == 0 {
		t.Errorf("clic_cache_read_hits_total = %v, want %d (nonzero)", got, res.ReadHits)
	}
	for _, name := range []string{
		"clic_cache_writes_total", "clic_cache_evictions_total", "clic_cache_rotations_total",
		"clic_cache_pages", "clic_cache_outqueue_depth", "clic_cache_tracked_hint_sets",
	} {
		if v, ok := samples[name]; !ok {
			t.Errorf("series %s missing", name)
		} else if v == 0 && name != "clic_cache_tracked_hint_sets" {
			t.Errorf("series %s is zero after a replay", name)
		}
	}
	if got := samples["clic_cache_capacity_pages"]; got != 2000 {
		t.Errorf("clic_cache_capacity_pages = %v, want 2000", got)
	}

	// Shard family: one labelled series per shard, summing to the front.
	var shardReads float64
	for i := 0; i < shards; i++ {
		key := fmt.Sprintf(`clic_shard_reads_total{shard="%d"}`, i)
		v, ok := samples[key]
		if !ok {
			t.Fatalf("series %s missing", key)
		}
		shardReads += v
	}
	if shardReads != float64(res.Reads) {
		t.Errorf("shard reads sum %v, want %d", shardReads, res.Reads)
	}

	// Wire family: the replay decoded and encoded frames on this server.
	for _, key := range []string{
		`clic_wire_frames_total{dir="decoded"}`, `clic_wire_frames_total{dir="encoded"}`,
		`clic_wire_bytes_total{dir="decoded"}`, `clic_wire_bytes_total{dir="encoded"}`,
	} {
		if samples[key] == 0 {
			t.Errorf("series %s missing or zero", key)
		}
	}

	// Server family: connection accounting and the batch histogram.
	if samples["clic_server_connections_total"] == 0 {
		t.Error("clic_server_connections_total missing or zero")
	}
	if v := samples["clic_server_connections_active"]; v != 0 {
		t.Errorf("clic_server_connections_active = %v after replay closed, want 0", v)
	}
	if samples["clic_server_batches_total"] == 0 || samples["clic_server_batch_ns_count"] == 0 {
		t.Error("batch service-time series missing or zero")
	}
	if samples["clic_server_batch_ns_count"] != samples["clic_server_batches_total"] {
		t.Errorf("batch histogram count %v != batches total %v",
			samples["clic_server_batch_ns_count"], samples["clic_server_batches_total"])
	}
	if samples[`clic_server_batch_ns_bucket{le="+Inf"}`] != samples["clic_server_batch_ns_count"] {
		t.Error("+Inf bucket does not equal histogram count")
	}
	// Frame size: one sample per served batch, summing to the requests.
	if got, want := samples["clic_server_batch_requests_count"], samples["clic_server_batches_total"]; got != want {
		t.Errorf("clic_server_batch_requests_count = %v, want clic_server_batches_total %v", got, want)
	}
	if got := samples["clic_server_batch_requests_sum"]; got != float64(res.Requests) {
		t.Errorf("clic_server_batch_requests_sum = %v, want %d requests served", got, res.Requests)
	}

	// Groups: every served batch frame is in exactly one group.
	groups := samples["clic_server_batch_group_frames_count"]
	if got, want := samples["clic_server_batch_group_frames_sum"], samples["clic_server_batches_total"]; got != want || groups == 0 || groups > want {
		t.Errorf("clic_server_batch_group_frames sum/count = %v/%v, want sum = clic_server_batches_total %v", got, groups, want)
	}

	// Combining counters: the replay's connection posted at least a frame
	// per group (one cache call each), and at most one per shard for each
	// group and each window boundary it cut a group at; the scrape agrees
	// with the snapshot now that the server is idle.
	frames, foreign := samples["clic_core_frames_total"], samples["clic_core_frames_foreign_total"]
	rotations := samples["clic_cache_rotations_total"]
	if frames < groups || frames > shards*(groups+rotations) {
		t.Errorf("clic_core_frames_total = %v for %v groups and %v rotations over %d shards", frames, groups, rotations, shards)
	}
	if _, ok := samples["clic_core_frames_foreign_total"]; !ok || foreign > frames {
		t.Errorf("clic_core_frames_foreign_total = %v (present %v) of %v frames", foreign, ok, frames)
	}
	if c := srv.Snapshot(0).Combining; float64(c.Frames) != frames || float64(c.Foreign) != foreign {
		t.Errorf("/stats combining = %+v, /metrics says %v frames, %v foreign", c, frames, foreign)
	}

	// Netclient family: the replay ran in this process, so the client-side
	// RTT histogram must be live too.
	if samples["clic_netclient_batches_total"] == 0 || samples["clic_netclient_batch_rtt_ns_count"] == 0 {
		t.Error("netclient series missing or zero for an in-process replay")
	}

	// Learner family, read without allocating.
	g := srv.Cache().Global()
	if v, ok := samples["clic_learner_deferred_windows_total"]; !ok || v != float64(g.DeferredWindows()) {
		t.Errorf("clic_learner_deferred_windows_total = %v (present %v), learner says %d", v, ok, g.DeferredWindows())
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = g.DeferredWindows() + uint64(g.Windows()+g.TrackedHintSets())
	}); n != 0 {
		t.Errorf("the learner's scrape-time reads allocate %v allocs per scrape, want 0", n)
	}
}

// TestSnapshotSchema is the /stats golden schema test: the JSON document's
// key sets are pinned, so accidental field renames or removals (the
// endpoint is a public surface; dashboards parse it) fail loudly.
// The snapshot stays a superset: adding fields requires updating the
// pinned sets here, deliberately.
func TestSnapshotSchema(t *testing.T) {
	// 6000 requests end mid-window, so windowStats is present.
	srv := startServer(t, server.Config{Cache: core.Config{Capacity: 1000, Window: 2500}, Shards: 2})
	if _, err := netclient.ReplaySource(srv.Addr().String(), testTrace.Truncate(6000).Source(), netclient.ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	// The writer counts a batch after flushing its response, so the client
	// can return before the last batches are counted. Every batch is in
	// flight from before its frames are counted until after the batch is,
	// so once nothing is in flight the batch and frame counts are final.
	for deadline := time.Now().Add(5 * time.Second); srv.Snapshot(0).Connections.Inflight != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d batches still in flight after the replay returned", srv.Snapshot(0).Connections.Inflight)
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get("http://" + srv.AdminAddr().String() + "/stats?top=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}

	keysOf := func(raw json.RawMessage) []string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("not an object: %s", raw)
		}
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	check := func(name string, raw json.RawMessage, want []string) {
		t.Helper()
		sort.Strings(want)
		if got := keysOf(raw); !reflect.DeepEqual(got, want) {
			t.Errorf("%s keys = %v, want %v", name, got, want)
		}
	}

	check("top-level", mustMarshal(t, doc), []string{
		"policy", "core", "shards", "connections", "histograms", "combining", "clients", "windowStats",
	})
	check("core", doc["core"], []string{
		"Requests", "Reads", "ReadHits", "ReadMisses", "Writes", "Evictions",
		"Len", "OutqueueLen", "Windows", "Shards", "Capacity",
	})
	var shardsArr []json.RawMessage
	if err := json.Unmarshal(doc["shards"], &shardsArr); err != nil {
		t.Fatal(err)
	}
	if len(shardsArr) != 2 {
		t.Fatalf("shards has %d entries, want 2", len(shardsArr))
	}
	check("shards[0]", shardsArr[0], []string{
		"reads", "read_hits", "writes", "evictions", "len", "outqueue_len",
	})
	check("connections", doc["connections"], []string{"active", "total", "inflight"})
	check("histograms", doc["histograms"], []string{"batchServiceNs", "batchRequests", "groupFrames", "batches"})
	check("combining", doc["combining"], []string{"frames", "foreign"})
	var hists struct {
		BatchServiceNs json.RawMessage `json:"batchServiceNs"`
		BatchRequests  json.RawMessage `json:"batchRequests"`
		GroupFrames    json.RawMessage `json:"groupFrames"`
		Batches        uint64          `json:"batches"`
	}
	if err := json.Unmarshal(doc["histograms"], &hists); err != nil {
		t.Fatal(err)
	}
	summaryKeys := []string{"count", "sum", "mean", "p50", "p90", "p99", "max"}
	check("histograms.batchServiceNs", hists.BatchServiceNs, summaryKeys)
	check("histograms.batchRequests", hists.BatchRequests, summaryKeys)
	check("histograms.groupFrames", hists.GroupFrames, summaryKeys)
	if hists.Batches == 0 {
		t.Error("histograms.batches is zero after a replay")
	}

	// Cross-checks: the shard rows must tile the core aggregate.
	var snap server.Snapshot
	raw := mustMarshal(t, doc)
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	var reads uint64
	for _, ss := range snap.Shards {
		reads += ss.Reads
	}
	if reads != snap.Core.Reads {
		t.Errorf("shard reads sum %d != core reads %d", reads, snap.Core.Reads)
	}
	if snap.Connections.Total == 0 {
		t.Error("connections.total is zero after a replay")
	}
	// Every group (one cache call) posts at least one frame, and at most one
	// per shard for the group and for each window boundary it was cut at;
	// the groups hold every batch once.
	gf := snap.Histograms.GroupFrames
	if c, g, w := snap.Combining, gf.Count, uint64(snap.Core.Windows); c.Frames < g || c.Frames > 2*(g+w) || c.Foreign > c.Frames {
		t.Errorf("combining = %+v for %d groups and %d rotations over 2 shards", c, g, w)
	}
	if gf.Sum != snap.Histograms.Batches || gf.Count == 0 {
		t.Errorf("groupFrames count/sum = %d/%d, want the sum to be the %d batches", gf.Count, gf.Sum, snap.Histograms.Batches)
	}
	if br := snap.Histograms.BatchRequests; br.Count != snap.Histograms.Batches || br.Sum != snap.Core.Requests {
		t.Errorf("batchRequests count/sum = %d/%d, want %d batches / %d requests",
			br.Count, br.Sum, snap.Histograms.Batches, snap.Core.Requests)
	}
}

func mustMarshal(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// lockedBuffer guards concurrent timeline writes from the sampler
// goroutine against the final read.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// TestServerTimeline attaches a timeline to a live server through a
// replay and checks the CSV stream has the standard schema, a final row,
// and internally consistent request accounting.
func TestServerTimeline(t *testing.T) {
	srv := startServer(t, server.Config{
		Cache:  core.Config{Capacity: 2000, Window: 4000},
		Shards: 4,
	})
	var buf lockedBuffer
	stop := srv.StartTimeline(&buf, 5*time.Millisecond)
	tr := testTrace.Truncate(16000)
	if _, err := netclient.ReplaySource(srv.Addr().String(), tr.Source(), netclient.ReplayOptions{BatchSize: 64}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond) // let at least one interval elapse
	stop()

	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("timeline has %d lines, want header plus rows:\n%s", len(lines), out)
	}
	wantHeader := "row,elapsed_s,reason,requests,req_per_s,hit_ratio,evictions,rotations,len,outq,batch_p50_ns,batch_p99_ns,connections"
	if lines[0] != wantHeader {
		t.Fatalf("timeline header = %q, want %q", lines[0], wantHeader)
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, ",final,") {
		t.Errorf("last row %q is not the final row", last)
	}
	// The requests column is a per-row delta; across all rows it must sum
	// to the replayed total.
	var total float64
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			t.Fatalf("bad requests cell in %q: %v", line, err)
		}
		total += v
	}
	if total != float64(tr.Len()) {
		t.Errorf("timeline request deltas sum to %v, want %d", total, tr.Len())
	}
}
