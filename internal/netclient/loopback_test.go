// Loopback integration tests: a real server and real clients in one
// process, talking TCP over 127.0.0.1, checked against the in-process
// engine.ServeSource path on the same trace and configuration.
package netclient_test

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hint"
	"repro/internal/netclient"
	"repro/internal/server"
	"repro/internal/sim"
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

// replay replays an in-memory trace against addr through ReplaySource, the
// one networked replay entry point.
func replay(t *testing.T, addr string, tr *trace.Trace, opt netclient.ReplayOptions) sim.Result {
	t.Helper()
	res, err := netclient.ReplaySource(addr, tr.Source(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// inproc serves the same trace in-process through a fresh front: the
// reference every loopback result is compared against.
func inproc(t *testing.T, cfg core.Config, shards int, tr *trace.Trace) sim.Result {
	t.Helper()
	res, err := engine.ServeSource(core.NewSharded(cfg, shards), tr.Source(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// lockStep sends reqs as one batch and waits for its results — a depth-1
// pipeline round trip, for tests that need the server's next reply.
func lockStep(conn *netclient.Conn, reqs []trace.Request) error {
	pl := conn.Pipeline(1, func(any, []bool, wire.Results, int64) error { return nil })
	if err := pl.Submit(reqs, nil); err != nil {
		return err
	}
	return pl.Drain()
}

func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv := server.New(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestLoopbackGoldenSingleClient is the golden equivalence test: with a
// single client both paths drive the cache with the same total request
// order, so the networked replay's aggregate hit/miss counts must equal
// engine.ServeSource exactly — same trace, same configuration, bit for
// bit — and the server's front must end in the in-process front's state,
// its Stats equal field for field.
func TestLoopbackGoldenSingleClient(t *testing.T) {
	cfg := core.Config{Capacity: 3000, Window: 5000}
	const shards = 4

	front := core.NewSharded(cfg, shards)
	want, err := engine.ServeSource(front, testTrace.Source(), 0)
	if err != nil {
		t.Fatal(err)
	}

	srv := startServer(t, server.Config{Cache: cfg, Shards: shards})
	got := replay(t, srv.Addr().String(), testTrace, netclient.ReplayOptions{})

	if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
		t.Errorf("loopback %d/%d hits/reads, in-process %d/%d", got.ReadHits, got.Reads, want.ReadHits, want.Reads)
	}
	if got.Requests != want.Requests {
		t.Errorf("Requests = %d, want %d", got.Requests, want.Requests)
	}
	if got.Policy != want.Policy {
		t.Errorf("Policy = %q, want %q", got.Policy, want.Policy)
	}
	if got.ReadHits == 0 {
		t.Error("no hits at all; the loopback path is vacuous")
	}
	// The server's own accounting must agree with the client's.
	st := srv.Cache().Stats()
	if st.Reads != got.Reads || st.ReadHits != got.ReadHits {
		t.Errorf("server stats (%d, %d) disagree with client accounting (%d, %d)",
			st.Reads, st.ReadHits, got.Reads, got.ReadHits)
	}
	if st.Requests != got.Requests {
		t.Errorf("server Requests = %d, want %d", st.Requests, got.Requests)
	}
	if in := front.Stats(); st != in {
		t.Errorf("server Stats drift:\nserver     %+v\nin-process %+v", st, in)
	}
}

// TestLoopbackMultiClient replays an interleaved three-client trace over
// three concurrent connections. The interleaving at the server is
// scheduler-dependent (exactly as in ServeSource), so only order-free
// quantities are compared: per-client read counts, totals, and the
// server-side accounting.
func TestLoopbackMultiClient(t *testing.T) {
	parts := make([]*trace.Trace, 3)
	for i := range parts {
		parts[i] = testTrace.Truncate(8000)
		parts[i].Name = fmt.Sprintf("c%d", i)
	}
	merged, err := trace.Interleave("TRIPLE", parts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Capacity: 3000, Window: 5000}
	want := inproc(t, cfg, 4, merged)

	srv := startServer(t, server.Config{Cache: cfg, Shards: 4})
	got := replay(t, srv.Addr().String(), merged, netclient.ReplayOptions{BatchSize: 128})

	if len(got.PerClient) != len(want.PerClient) {
		t.Fatalf("PerClient has %d entries, want %d", len(got.PerClient), len(want.PerClient))
	}
	for c := range got.PerClient {
		if got.PerClient[c].Name != want.PerClient[c].Name {
			t.Errorf("client %d name %q, want %q", c, got.PerClient[c].Name, want.PerClient[c].Name)
		}
		// Read counts depend only on the trace, not the interleaving.
		if got.PerClient[c].Reads != want.PerClient[c].Reads {
			t.Errorf("client %d Reads = %d, want %d", c, got.PerClient[c].Reads, want.PerClient[c].Reads)
		}
	}
	if got.Reads != want.Reads {
		t.Errorf("Reads = %d, want %d", got.Reads, want.Reads)
	}
	if got.ReadHits == 0 {
		t.Error("no hits at all")
	}
	st := srv.Cache().Stats()
	if st.ReadHits != got.ReadHits || st.Reads != got.Reads {
		t.Errorf("server stats (%d/%d) disagree with client accounting (%d/%d)",
			st.ReadHits, st.Reads, got.ReadHits, got.Reads)
	}
	snap := srv.Snapshot(10)
	var snapReads, snapHits uint64
	for _, cs := range snap.Clients {
		snapReads += cs.Reads
		snapHits += cs.ReadHits
	}
	if snapReads != got.Reads || snapHits != got.ReadHits {
		t.Errorf("snapshot per-client sums (%d/%d) disagree with client accounting (%d/%d)",
			snapHits, snapReads, got.ReadHits, got.Reads)
	}
}

// TestReplayFrameShape: a default replay sends every client's requests in
// wire.DefaultBatch-request frames from the first, so the server counts
// exactly Σ⌈n_c/512⌉ frames, the last of each client's short, holding
// every request once.
func TestReplayFrameShape(t *testing.T) {
	parts := []*trace.Trace{testTrace.Truncate(10001), testTrace.Truncate(10001)}
	parts[0].Name, parts[1].Name = "c0", "c1"
	merged, err := trace.Interleave("PAIR", parts...)
	if err != nil {
		t.Fatal(err)
	}
	merged = merged.Truncate(20001) // c0 10001 requests, c1 10000
	var want uint64
	for _, reqs := range merged.SplitClients() {
		want += uint64((len(reqs) + wire.DefaultBatch - 1) / wire.DefaultBatch)
	}
	srv := startServer(t, server.Config{Cache: core.Config{Capacity: 3000, Window: 5000}, Shards: 2})
	res := replay(t, srv.Addr().String(), merged, netclient.ReplayOptions{})
	// The server counts a frame after writing its results, so the last
	// may be counted after the replay returns: wait until the frames hold
	// every request, and then read the count, which is settled by then.
	for deadline := time.Now().Add(5 * time.Second); srv.Snapshot(0).Histograms.BatchRequests.Sum < res.Requests && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	br := srv.Snapshot(0).Histograms.BatchRequests
	if br.Count != want || br.Sum != res.Requests || res.Requests != uint64(merged.Len()) {
		t.Errorf("server saw %d frames holding %d requests, want %d frames holding %d",
			br.Count, br.Sum, want, merged.Len())
	}
}

// TestLoopbackFileSourceBinary streams a binary trace file over the wire
// and checks it against the in-process serve of the same requests on an
// identically configured front.
func TestLoopbackFileSourceBinary(t *testing.T) {
	tr := testTrace.Truncate(12000)
	path := filepath.Join(t.TempDir(), "t.trc")
	if err := trace.Save(path, tr); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Capacity: 2000, Window: 4000}

	srv := startServer(t, server.Config{Cache: cfg, Shards: 4})
	got, err := netclient.ReplaySource(srv.Addr().String(), trace.FileSource(path), netclient.ReplayOptions{BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}

	// Single client: the file replay is sequential, so it must match the
	// in-memory sequential replay exactly.
	want := inproc(t, cfg, 4, tr)
	if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
		t.Errorf("file replay %d/%d, in-memory %d/%d", got.ReadHits, got.Reads, want.ReadHits, want.Reads)
	}
	if got.Requests != uint64(tr.Len()) {
		t.Errorf("Requests = %d, want %d", got.Requests, tr.Len())
	}
}

// TestLoopbackFileSourceText streams a trace file whose hint dictionary
// arrives in sections interleaved with small request blocks, so hint sets
// are discovered mid-scan — exercising the Intern (mid-stream announcement)
// protocol path end to end over a single server. The sequential file
// replay must still match the in-memory path exactly.
func TestLoopbackFileSourceText(t *testing.T) {
	tr := testTrace.Truncate(5000)
	path := filepath.Join(t.TempDir(), "t.trc")
	w, err := trace.Create(path, tr.Name, tr.PageSize, tr.Clients, trace.WriterOptions{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	d := w.HintDict()
	for _, r := range tr.Reqs {
		// Intern lazily, in ID order so IDs are preserved.
		for id := d.Len(); id <= int(r.Hint); id++ {
			d.InternKey(tr.Dict.Key(hint.ID(id)))
		}
		w.AppendReq(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Capacity: 1500, Window: 2000}

	srv := startServer(t, server.Config{Cache: cfg, Shards: 4})
	got, err := netclient.ReplaySource(srv.Addr().String(), trace.FileSource(path), netclient.ReplayOptions{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := inproc(t, cfg, 4, tr)
	if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
		t.Errorf("file replay %d/%d, in-memory %d/%d", got.ReadHits, got.Reads, want.ReadHits, want.Reads)
	}
	if got.ReadHits == 0 {
		t.Error("no hits at all")
	}

	// The dictionary really does grow after the first request.
	sc, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	sc.Next()
	first := sc.HintDict().Len()
	for len(sc.Next()) > 0 {
	}
	if err := sc.Err(); err != nil || sc.HintDict().Len() <= first {
		t.Fatalf("dictionary %d keys at the first request, %d at the end (err %v)", first, sc.HintDict().Len(), err)
	}
}

// TestLoopbackLimit checks ReplayOptions.Limit.
func TestLoopbackLimit(t *testing.T) {
	srv := startServer(t, server.Config{Cache: core.Config{Capacity: 500, Window: 1000}, Shards: 2})
	got := replay(t, srv.Addr().String(), testTrace, netclient.ReplayOptions{Limit: 2500})
	if got.Requests != 2500 {
		t.Errorf("Requests = %d, want 2500", got.Requests)
	}
	if st := srv.Cache().Stats(); st.Requests != 2500 {
		t.Errorf("server processed %d requests, want 2500", st.Requests)
	}
}

// TestAdminStats exercises the admin HTTP endpoint end to end. The 8000
// requests end a third of the way into a window, so the window view has
// entries.
func TestAdminStats(t *testing.T) {
	cfg := core.Config{Capacity: 1000, Window: 3000}
	srv := startServer(t, server.Config{Cache: cfg, Shards: 2})
	if err := srv.ListenAdmin("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	replay(t, srv.Addr().String(), testTrace.Truncate(8000), netclient.ReplayOptions{})
	resp, err := http.Get("http://" + srv.AdminAddr().String() + "/stats?top=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var snap server.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Core.Requests != 8000 {
		t.Errorf("admin Requests = %d, want 8000", snap.Core.Requests)
	}
	if snap.Core.ReadHits == 0 {
		t.Error("admin reports no hits")
	}
	if snap.Policy != "CLIC/2" {
		t.Errorf("admin Policy = %q, want CLIC/2", snap.Policy)
	}
	if len(snap.Clients) != 1 || snap.Clients[0].Name != testTrace.Name {
		t.Errorf("admin Clients = %+v, want one entry named %q", snap.Clients, testTrace.Name)
	}
	if len(snap.WindowStats) == 0 || len(snap.WindowStats) > 5 {
		t.Errorf("admin WindowStats has %d entries, want 1..5", len(snap.WindowStats))
	}
	if _, err := http.Get("http://" + srv.AdminAddr().String() + "/stats?top=bogus"); err != nil {
		t.Fatal(err)
	}
}

// TestHintVocabularyLimit checks that the server refuses connections that
// would grow the shared dictionary past the configured bound, at both the
// Hello and the Intern stage.
func TestHintVocabularyLimit(t *testing.T) {
	srv := startServer(t, server.Config{Cache: core.Config{Capacity: 100}, Shards: 2, MaxHintKeys: 4})
	conn, err := netclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Hello("greedy", []string{"a=1", "a=2", "a=3", "a=4", "a=5"}); err == nil {
		t.Error("server accepted a Hello above the hint-vocabulary limit")
	}

	conn2, err := netclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Hello("ok", []string{"a=1", "a=2", "a=3"}); err != nil {
		t.Fatal(err)
	}
	if err := conn2.Announce([]string{"a=4", "a=5"}); err != nil {
		t.Fatal(err) // announce is buffered; the error surfaces with the next batch
	}
	if err := lockStep(conn2, []trace.Request{{Page: 1}}); err == nil {
		t.Error("server accepted an Intern above the hint-vocabulary limit")
	}
}

// TestUnannouncedHintRefusedWhole: a batch naming a hint index the
// connection never announced is refused before any of it reaches the cache.
// Two good frames and the bad one arrive pipelined in one write; the good
// ones are answered in order, then one Error frame names the index and the
// table size, then the connection closes — and the cache has served exactly
// the two good frames, not the 299 requests ahead of the bad one as well.
func TestUnannouncedHintRefusedWhole(t *testing.T) {
	const n = 400
	good := make([]trace.Request, n)
	for i := range good {
		good[i] = trace.Request{Page: uint64(i * 7 % 1000), Hint: hint.ID(i % 2)}
	}
	bad := append([]trace.Request(nil), good...)
	bad[299].Hint = 2 // the table has two entries: indices 0 and 1
	t.Run("pipelined", func(t *testing.T) {
		base := runtime.NumGoroutine()
		srv := startServer(t, server.Config{Cache: core.Config{Capacity: 500, Window: 1000}, Shards: 4})
		c := dialRaw(t, srv.Addr().String())
		c.send(wire.AppendHello(nil, wire.Hello{Version: wire.Version, Client: "sloppy", Keys: []string{"a=1", "a=2"}}))
		if _, err := wire.DecodeHelloAck(c.recv()); err != nil {
			t.Fatal(err)
		}
		for seq, reqs := range [][]trace.Request{good, good, bad} {
			if err := wire.WriteFrame(c.bw, wire.AppendBatchSeq(nil, uint64(seq), reqs)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		for want := uint64(0); want < 2; want++ {
			seq, res, err := wire.DecodeResultsSeq(c.recv(), wire.Results{})
			if err != nil || seq != want || len(res.Hits) != n {
				t.Fatalf("reply %d: seq %d, %d results, err %v", want, seq, len(res.Hits), err)
			}
		}
		if msg := c.refused(); !strings.Contains(msg, "hint index 2") || !strings.Contains(msg, "table has 2") {
			t.Errorf("refusal %q does not name the index and the table size", msg)
		}
		if got := srv.Cache().Stats().Requests; got != 2*n {
			t.Errorf("cache served %d requests, want exactly the two good frames' %d", got, 2*n)
		}
		srv.Close()
		if got := settledGoroutines(base); got > base {
			t.Errorf("%d goroutines after the refused connection, %d before", got, base)
		}
	})
}

// TestFramePrefixCommitsNoMemory: a length prefix is a claim, not bytes.
// Thirty-two handshaken connections each send only the prefix of a
// MaxFrame-sized frame and stall; the server must not have set the claimed
// 16 MB aside for any of them (it used to, on the prefix alone: half a
// gigabyte here) — the buffer for a frame larger than the connection's
// reader grows as the payload actually arrives. Closing the connections
// ends their handlers.
func TestFramePrefixCommitsNoMemory(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := startServer(t, server.Config{Cache: core.Config{Capacity: 100}, Shards: 2})
	conns := make([]rawConn, 32)
	for i := range conns {
		conns[i] = dialRaw(t, srv.Addr().String())
		conns[i].send(wire.AppendHello(nil, wire.Hello{Version: wire.Version, Client: "staller"}))
		if _, err := wire.DecodeHelloAck(conns[i].recv()); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	prefix := binary.AppendUvarint(nil, wire.MaxFrame)
	for _, c := range conns {
		if _, err := c.bw.Write(prefix); err != nil {
			t.Fatal(err)
		}
		if err := c.bw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond) // the handlers read their prefixes and wait
	if after := heap(); after > before+1<<20 {
		t.Errorf("server heap grew %d KB on %d bare length prefixes, want under 1 MB", (after-before)>>10, len(conns))
	}
	for _, c := range conns {
		c.nc.Close()
	}
	srv.Close()
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after the stalled connections closed, %d before", n, base)
	}
}

// rawConn is a hand-rolled peer: frames in and out with no client library
// in between, for saying things netclient never would.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	fr *wire.FrameReader
	bw *bufio.Writer
}

func dialRaw(t *testing.T, addr string) rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return rawConn{t, nc, wire.NewFrameReader(bufio.NewReader(nc)), bufio.NewWriter(nc)}
}

func (c rawConn) send(payload []byte) {
	c.t.Helper()
	if err := wire.WriteFrame(c.bw, payload); err != nil {
		c.t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

// recv returns the next frame's payload, valid until the next recv.
func (c rawConn) recv() []byte {
	c.t.Helper()
	p, err := c.fr.Next()
	if err != nil {
		c.t.Fatal(err)
	}
	return p
}

// refused reads the server's reply, which must be an Error frame followed
// by the connection closing, and returns the message.
func (c rawConn) refused() string {
	c.t.Helper()
	msg, err := wire.DecodeError(c.recv())
	if err != nil {
		c.t.Fatalf("reply is not an Error frame: %v", err)
	}
	if _, err := c.fr.Next(); err != io.EOF {
		c.t.Errorf("after the Error frame: err = %v, want the connection closed", err)
	}
	return msg
}

// TestHelloVersionMismatch pins the single-version handshake against raw
// peers: an older client is refused with an Error frame naming both
// versions and never acked; a newer one is acked at the server's version
// with a usable window; a batch before Hello and a retired type-4 Batch
// or type-7 Summary after it are each refused cleanly.
func TestHelloVersionMismatch(t *testing.T) {
	srv := startServer(t, server.Config{Cache: core.Config{Capacity: 100}, Shards: 2})
	addr := srv.Addr().String()
	batch := wire.AppendBatchSeq(nil, 0, []trace.Request{{Page: 1}})

	old := dialRaw(t, addr)
	old.send(wire.AppendHello(nil, wire.Hello{Version: wire.Version - 1, Client: "old"}))
	if msg := old.refused(); !strings.Contains(msg, strconv.Itoa(wire.Version-1)) || !strings.Contains(msg, strconv.Itoa(wire.Version)) {
		t.Errorf("refusal %q does not name versions %d and %d", msg, wire.Version-1, wire.Version)
	}

	future := dialRaw(t, addr)
	future.send(wire.AppendHello(nil, wire.Hello{Version: wire.Version + 1, Client: "future", Keys: []string{""}}))
	ack, err := wire.DecodeHelloAck(future.recv())
	if err != nil {
		t.Fatalf("reply to a newer Hello is not an ack: %v", err)
	}
	if ack.Version != wire.Version || ack.Window == 0 {
		t.Errorf("ack to a newer client: version %d window %d, want %d and a non-zero window", ack.Version, ack.Window, wire.Version)
	}
	// The acked connection is live and speaks tagged frames.
	future.send(batch)
	if seq, res, err := wire.DecodeResultsSeq(future.recv(), wire.Results{}); err != nil || seq != 0 || len(res.Hits) != 1 {
		t.Errorf("batch after the ack: seq %d, %d results, err %v", seq, len(res.Hits), err)
	}
	// Type 4 was the untagged Batch; the byte stays reserved.
	future.send(append([]byte{4}, batch[2:]...))
	if msg := future.refused(); !strings.Contains(msg, "unexpected frame type 4") {
		t.Errorf("type-4 frame answered with %q", msg)
	}
	// Type 7 was the Summary cluster nodes exchanged; the byte stays
	// reserved too.
	peer := dialRaw(t, addr)
	peer.send(wire.AppendHello(nil, wire.Hello{Version: wire.Version, Client: "peer"}))
	if _, err := wire.DecodeHelloAck(peer.recv()); err != nil {
		t.Fatalf("reply to a Hello is not an ack: %v", err)
	}
	peer.send([]byte{7, 2, 'n', '0', 1, 0})
	if msg := peer.refused(); !strings.Contains(msg, "unexpected frame type 7") {
		t.Errorf("type-7 frame answered with %q", msg)
	}

	eager := dialRaw(t, addr)
	eager.send(batch)
	if msg := eager.refused(); !strings.Contains(msg, "frame type") {
		t.Errorf("batch before Hello answered with %q", msg)
	}
	if st := srv.Cache().Stats(); st.Requests != 1 {
		t.Errorf("server served %d requests, want only the one tagged batch", st.Requests)
	}
}

// TestLoopbackGlobalLearner runs the whole network stack with three
// concurrent client connections against two shards, so connection handlers
// contend for the shards while rotations take and owe the taps' windows —
// the TCP-path stress test for the shared learner (run under -race in CI).
// Order-free quantities are checked against the in-process ServeSource
// path and the admin snapshot.
func TestLoopbackGlobalLearner(t *testing.T) {
	parts := make([]*trace.Trace, 3)
	for i := range parts {
		parts[i] = testTrace.Truncate(8000)
		parts[i].Name = fmt.Sprintf("g%d", i)
	}
	merged, err := trace.Interleave("TRIPLE_GLOBAL", parts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Capacity: 3000, Window: 5000}
	want := inproc(t, cfg, 2, merged)

	srv := startServer(t, server.Config{Cache: cfg, Shards: 2})
	if err := srv.ListenAdmin("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	got := replay(t, srv.Addr().String(), merged, netclient.ReplayOptions{BatchSize: 128})
	for c := range got.PerClient {
		if got.PerClient[c].Reads != want.PerClient[c].Reads {
			t.Errorf("client %d Reads = %d, want %d", c, got.PerClient[c].Reads, want.PerClient[c].Reads)
		}
	}
	if got.Reads != want.Reads {
		t.Errorf("Reads = %d, want %d", got.Reads, want.Reads)
	}
	if got.ReadHits == 0 {
		t.Error("no hits at all")
	}
	st := srv.Cache().Stats()
	if st.ReadHits != got.ReadHits || st.Reads != got.Reads {
		t.Errorf("server stats (%d/%d) disagree with client accounting (%d/%d)",
			st.ReadHits, st.Reads, got.ReadHits, got.Reads)
	}
	if want := merged.Len() / 5000; st.Windows != want {
		t.Errorf("Windows = %d, want exactly %d (shared learner)", st.Windows, want)
	}

	resp, err := http.Get("http://" + srv.AdminAddr().String() + "/stats?top=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap server.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Core.Windows != st.Windows {
		t.Errorf("admin Windows = %d, want %d", snap.Core.Windows, st.Windows)
	}
	if snap.Core.Requests != uint64(merged.Len()) {
		t.Errorf("admin Requests = %d, want %d", snap.Core.Requests, merged.Len())
	}
}

// TestLoopbackGoldenGlobalSingleShard: a 1-shard server replayed by a
// single client must match ServeSource on the same in-process front
// exactly. With the engine's TestServeSourceGlobalSingleClient, which
// matches that front's frame path against a plain cache's serial Access,
// it carries the equivalence through the whole TCP stack.
func TestLoopbackGoldenGlobalSingleShard(t *testing.T) {
	tr := testTrace.Truncate(12000)
	cfg := core.Config{Capacity: 2000, Window: 4000}
	want := inproc(t, cfg, 1, tr)

	srv := startServer(t, server.Config{Cache: cfg, Shards: 1})
	got := replay(t, srv.Addr().String(), tr, netclient.ReplayOptions{})
	if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
		t.Errorf("loopback %d/%d hits/reads, in-process %d/%d", got.ReadHits, got.Reads, want.ReadHits, want.Reads)
	}
	if got.ReadHits == 0 {
		t.Error("no hits at all; the loopback path is vacuous")
	}
}

// TestLoopbackOwnerGolden is the TCP-layer equivalence test for the
// combining front's two ways in: a single-client replay, whose batches fan
// out to the shards as frames, must produce bit-identical hit counts and
// Stats to the same trace fed one request at a time through Sharded.Access,
// which holds each shard by its try-lock and runs no frame at all.
func TestLoopbackOwnerGolden(t *testing.T) {
	cfg := core.Config{Capacity: 3000, Window: 5000}
	const shards = 4

	serial := core.NewSharded(cfg, shards)
	var reads, readHits uint64
	for _, r := range testTrace.Reqs {
		hit := serial.Access(r)
		if r.Op == trace.Read {
			reads++
			if hit {
				readHits++
			}
		}
	}

	srv := startServer(t, server.Config{Cache: cfg, Shards: shards})
	got := replay(t, srv.Addr().String(), testTrace, netclient.ReplayOptions{})

	if got.Reads != reads || got.ReadHits != readHits {
		t.Errorf("framed server %d/%d hits/reads, serial Access %d/%d", got.ReadHits, got.Reads, readHits, reads)
	}
	if got.ReadHits == 0 {
		t.Error("no hits at all; test is vacuous")
	}
	if st, in := srv.Cache().Stats(), serial.Stats(); st != in {
		t.Errorf("server Stats drift:\nframed %+v\nserial %+v", st, in)
	}
}

// TestLoopbackOwnerMultiClient replays three concurrent clients against a
// 2-shard server at the default batching — the TCP-layer stress for
// concurrent producers. Per-client read counts are exact and the server
// accounting must agree with the clients'.
func TestLoopbackOwnerMultiClient(t *testing.T) {
	parts := make([]*trace.Trace, 3)
	for i := range parts {
		parts[i] = testTrace.Truncate(8000)
		parts[i].Name = string(rune('A' + i))
	}
	merged, err := trace.Interleave("THREE", parts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Capacity: 3000, Window: 5000}
	srv := startServer(t, server.Config{Cache: cfg, Shards: 2})
	res := replay(t, srv.Addr().String(), merged, netclient.ReplayOptions{})
	var reads, hits uint64
	for _, cs := range res.PerClient {
		reads += cs.Reads
		hits += cs.ReadHits
	}
	if res.Reads != reads || res.ReadHits != hits {
		t.Errorf("totals (%d, %d) disagree with per-client sums (%d, %d)", res.Reads, res.ReadHits, reads, hits)
	}
	if res.ReadHits == 0 {
		t.Error("no hits at all")
	}
	st := srv.Cache().Stats()
	if st.Reads != res.Reads || st.ReadHits != res.ReadHits {
		t.Errorf("server stats (%d, %d) disagree with client accounting (%d, %d)",
			st.Reads, st.ReadHits, res.Reads, res.ReadHits)
	}
	if st.Requests != uint64(merged.Len()) {
		t.Errorf("server Requests = %d, want %d", st.Requests, merged.Len())
	}
}
