// Tests of the wire's flush rule (see "Flushing" in package wire): neither
// side blocks on its peer while holding unflushed bytes the peer may be
// waiting for, and frames share system calls where that costs no one a
// wait. The liveness cases say things netclient never would, over raw
// connections with a read deadline in place of a hang; the counts wrap the
// client's connection to see each write it makes.
package netclient_test

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netclient"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// countingConn counts the Write calls made on a connection: with a
// bufio.Writer in front of it, one per flush.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// rawHello opens a raw connection with a 10 s read deadline (a reply that
// never comes fails the test instead of hanging it) and shakes hands.
func rawHello(t *testing.T, addr string, keys ...string) rawConn {
	t.Helper()
	c := dialRaw(t, addr)
	if err := c.nc.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	c.send(wire.AppendHello(nil, wire.Hello{Version: wire.Version, Client: "raw", Keys: keys}))
	if _, err := wire.DecodeHelloAck(c.recv()); err != nil {
		t.Fatal(err)
	}
	return c
}

// wantResults reads the next frame and requires it to be the ResultsSeq for
// sequence number seq with n verdicts.
func (c rawConn) wantResults(seq uint64, n int) {
	c.t.Helper()
	got, res, err := wire.DecodeResultsSeq(c.recv(), wire.Results{})
	if err != nil || got != seq || len(res.Hits) != n {
		c.t.Fatalf("want results %d × %d, got seq %d × %d, err %v", seq, n, got, len(res.Hits), err)
	}
}

func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines afterwards, %d before", n, base)
	}
}

// TestFlushBeforeBlockingBehindIntern: two batches and an Intern frame
// arrive in one write, and the client then only reads. The last frame the
// server's reader takes before it blocks produces no result, so whatever
// triggers the flush must not be "a result was just written with nothing
// behind it in the read buffer": both results must arrive though the reader
// has gone on to a frame that answers nothing.
func TestFlushBeforeBlockingBehindIntern(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := startServer(t, server.Config{Cache: core.Config{Capacity: 100}, Shards: 2})
	c := rawHello(t, srv.Addr().String(), "a=1")
	reqs := []trace.Request{{Page: 1}, {Page: 2}, {Page: 1}}
	for _, p := range [][]byte{
		wire.AppendBatchSeq(nil, 0, reqs),
		wire.AppendBatchSeq(nil, 1, reqs),
		wire.AppendIntern(nil, []string{"a=2"}),
	} {
		if err := wire.WriteFrame(c.bw, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	c.wantResults(0, len(reqs))
	c.wantResults(1, len(reqs))
	c.nc.Close()
	srv.Close()
	checkGoroutines(t, base)
}

// TestFlushBeforeBlockingBehindPartialFrame: a whole batch and the first
// half of the next arrive together. The server answers the first before the
// second half is ever sent — bytes of a further frame in the read buffer are
// not a reason to hold results back when the frame is not all there.
func TestFlushBeforeBlockingBehindPartialFrame(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := startServer(t, server.Config{Cache: core.Config{Capacity: 100}, Shards: 2})
	c := rawHello(t, srv.Addr().String(), "a=1")
	reqs := make([]trace.Request, 40)
	for i := range reqs {
		reqs[i].Page = uint64(i % 7)
	}
	var stream bytes.Buffer
	w := bufio.NewWriter(&stream)
	whole := 0
	for seq := uint64(0); seq < 2; seq++ {
		if err := wire.WriteFrame(w, wire.AppendBatchSeq(nil, seq, reqs)); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		if seq == 0 {
			whole = stream.Len()
		}
	}
	b := stream.Bytes()
	cut := whole + (len(b)-whole)/2
	if _, err := c.nc.Write(b[:cut]); err != nil {
		t.Fatal(err)
	}
	c.wantResults(0, len(reqs))
	if _, err := c.nc.Write(b[cut:]); err != nil {
		t.Fatal(err)
	}
	c.wantResults(1, len(reqs))
	c.nc.Close()
	srv.Close()
	checkGoroutines(t, base)
}

// countedPipeline dials addr through a countingConn and returns the
// connection, a pipeline of the given depth over it and the counter,
// zeroed after the handshake.
func countedPipeline(t testing.TB, addr string, depth int) (*netclient.Conn, *netclient.Pipeline, *countingConn) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	conn := netclient.NewConn(cc)
	if _, err := conn.Hello("counted", []string{"a=1"}); err != nil {
		t.Fatal(err)
	}
	cc.writes.Store(0)
	return conn, conn.Pipeline(depth, func(any, []bool, wire.Results, int64) error { return nil }), cc
}

// TestPipelineWriteCounts pins how many system calls the client's half of
// the rule makes. How many reads find their result already buffered is the
// server's doing, so the depth-8 count runs against a scripted peer that
// answers four frames at a time, in one write: every read but the first of
// four finds its result waiting and flushes nothing, and the frames leave
// four to a write as half the window fills — 64/4 writes for 64 frames,
// with a window's worth of slack for a burst that arrives in two pieces. At
// depth 1, against the real server, it is exactly one write per frame, and
// not Submit's: a submitted frame is still buffered when Submit returns and
// leaves immediately before the read of its own result, the lock-step
// program order that serve_lockstep's round-trip time depends on.
func TestPipelineWriteCounts(t *testing.T) {
	base := runtime.NumGoroutine()
	reqs := []trace.Request{{Page: 1}, {Page: 2}, {Page: 3}, {Page: 1}}
	const frames = 64

	bursty := fakeServer(t, func(fr *wire.FrameReader, bw *bufio.Writer) error {
		if err := ackHello(fr, bw, wire.HelloAck{Version: wire.Version, Shards: 1, Capacity: 100, Window: 8}); err != nil {
			return err
		}
		res := wire.Results{Hits: make([]bool, len(reqs))}
		for seq := uint64(0); seq < frames; seq++ {
			if _, err := fr.Next(); err != nil {
				return err
			}
			if seq%4 != 3 {
				continue
			}
			for s := seq - 3; s <= seq; s++ {
				if err := wire.WriteFrame(bw, wire.AppendResultsSeq(nil, s, res)); err != nil {
					return err
				}
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		return nil
	})
	conn, pl, cc := countedPipeline(t, bursty, 8)
	for i := 0; i < frames; i++ {
		if err := pl.Submit(reqs, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load(); got < frames/4 || got > frames/4+8 {
		t.Errorf("depth 8: %d writes for %d frames, want %d to %d", got, frames, frames/4, frames/4+8)
	}
	conn.Close()

	srv := startServer(t, server.Config{Cache: core.Config{Capacity: 100}, Shards: 2})
	conn, pl, cc = countedPipeline(t, srv.Addr().String(), 1)
	for i := 0; i < frames; i++ {
		if err := pl.Submit(reqs, nil); err != nil {
			t.Fatal(err)
		}
		// Submit completed frame i-1 — whose write that took — and buffered
		// frame i.
		if got := cc.writes.Load(); got != int64(i) {
			t.Fatalf("depth 1: %d writes after submitting frame %d, want %d: Submit must leave its own frame buffered", got, i, i)
		}
	}
	if err := pl.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load(); got != frames {
		t.Errorf("depth 1: %d writes for %d frames, want exactly one each", got, frames)
	}
	conn.Close()
	srv.Close()
	checkGoroutines(t, base)
}

// BenchmarkPipelineSmallFrames prices the case the flush rule exists for:
// frames too small to amortise a system call each, at depth 8 against a
// live loopback server. ns/op is per request; writes/request is the
// client's, from the counting connection.
func BenchmarkPipelineSmallFrames(b *testing.B) {
	for _, per := range []int{1, 16} {
		b.Run(fmt.Sprintf("reqs=%d", per), func(b *testing.B) {
			srv := server.New(server.Config{Cache: core.Config{Capacity: 4096, Window: 1 << 20}, Shards: 8})
			if err := srv.Start("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			conn, pl, cc := countedPipeline(b, srv.Addr().String(), netclient.DefaultDepth)
			defer conn.Close()
			reqs := make([]trace.Request, per)
			b.ResetTimer()
			for i := 0; i < b.N; i += per {
				for j := range reqs {
					reqs[j].Page = uint64((i + j) * 13 % 8192)
				}
				if err := pl.Submit(reqs, nil); err != nil {
					b.Fatal(err)
				}
			}
			if err := pl.Drain(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(cc.writes.Load())/float64(b.N), "writes/request")
		})
	}
}
