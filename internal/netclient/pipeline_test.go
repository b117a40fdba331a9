// Pipelined wire-path tests: equivalence of every in-flight depth with
// the in-process engine, protocol edge cases against hand-rolled peers
// (reordered results, window capping), replay failure paths, a
// concurrency stress for -race, and the end-to-end zero-allocation pin for
// the pipelined client and server serve loops.
package netclient_test

import (
	"bufio"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netclient"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestPipelineDepthEquivalence is the golden test for pipelining: a
// single-client replay produces exactly the same reads and hits at any
// in-flight depth, and exactly matches engine.ServeSource — depth
// changes when results arrive, never what the server computes.
func TestPipelineDepthEquivalence(t *testing.T) {
	cfg := core.Config{Capacity: 3000, Window: 5000}
	const shards = 4
	want := inproc(t, cfg, shards, testTrace)

	for _, depth := range []int{1, 4, 32} {
		srv := startServer(t, server.Config{Cache: cfg, Shards: shards})
		got := replay(t, srv.Addr().String(), testTrace, netclient.ReplayOptions{Depth: depth, BatchSize: 256})
		if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
			t.Errorf("depth %d: %d/%d hits/reads, in-process %d/%d",
				depth, got.ReadHits, got.Reads, want.ReadHits, want.Reads)
		}
		if got.ReadHits == 0 {
			t.Errorf("depth %d: no hits at all; test is vacuous", depth)
		}
		st := srv.Cache().Stats()
		if st.Reads != got.Reads || st.ReadHits != got.ReadHits {
			t.Errorf("depth %d: server stats (%d/%d) disagree with client (%d/%d)",
				depth, st.ReadHits, st.Reads, got.ReadHits, got.Reads)
		}
	}
}

// TestPipelineOwnerDepthEquivalence runs the same invariant at the default
// frame size, wire.DefaultBatch, against the lock-step replay: a single
// producer's verdicts do not depend on how many of its frames are in
// flight.
func TestPipelineOwnerDepthEquivalence(t *testing.T) {
	cfg := core.Config{Capacity: 3000, Window: 5000}
	const shards = 4

	srv1 := startServer(t, server.Config{Cache: cfg, Shards: shards})
	want := replay(t, srv1.Addr().String(), testTrace, netclient.ReplayOptions{Depth: 1})
	for _, depth := range []int{4, 32} {
		srv := startServer(t, server.Config{Cache: cfg, Shards: shards})
		got := replay(t, srv.Addr().String(), testTrace, netclient.ReplayOptions{Depth: depth})
		if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
			t.Errorf("depth %d: %d/%d hits/reads, depth-1 %d/%d",
				depth, got.ReadHits, got.Reads, want.ReadHits, want.Reads)
		}
	}
	if want.ReadHits == 0 {
		t.Error("no hits at all; test is vacuous")
	}
}

// fakeServer runs handler on one accepted connection, for protocol tests
// that need server behaviour a real server would never produce.
func fakeServer(t *testing.T, handler func(fr *wire.FrameReader, bw *bufio.Writer) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := wire.NewFrameReader(bufio.NewReader(conn))
		bw := bufio.NewWriter(conn)
		if err := handler(fr, bw); err != nil {
			t.Log("fake server:", err)
		}
		bw.Flush()
	}()
	return ln.Addr().String()
}

// ackHello consumes the client Hello and answers with the given ack.
func ackHello(fr *wire.FrameReader, bw *bufio.Writer, ack wire.HelloAck) error {
	p, err := fr.Next()
	if err != nil {
		return err
	}
	if _, err := wire.DecodeHello(p); err != nil {
		return err
	}
	if err := wire.WriteFrame(bw, wire.AppendHelloAck(nil, ack)); err != nil {
		return err
	}
	return bw.Flush()
}

// TestPipelineReorderedResults checks the client detects a server that
// answers out of sequence order and fails with a readable protocol error
// instead of silently mis-attributing hits.
func TestPipelineReorderedResults(t *testing.T) {
	addr := fakeServer(t, func(fr *wire.FrameReader, bw *bufio.Writer) error {
		if err := ackHello(fr, bw, wire.HelloAck{Version: wire.Version, Shards: 1, Capacity: 100, Window: 8}); err != nil {
			return err
		}
		// Read two tagged batches, answer them swapped.
		var seqs []uint64
		var sizes []int
		for i := 0; i < 2; i++ {
			p, err := fr.Next()
			if err != nil {
				return err
			}
			var n int
			seq, _, err := wire.DecodeBatchStream(p,
				func(c int) error { n = c; return nil },
				func(int, trace.Request) error { return nil })
			if err != nil {
				return err
			}
			seqs = append(seqs, seq)
			sizes = append(sizes, n)
		}
		for i := []int{1, 0}[0]; i >= 0; i-- {
			res := wire.Results{Hits: make([]bool, sizes[i])}
			if err := wire.WriteFrame(bw, wire.AppendResultsSeq(nil, seqs[i], res)); err != nil {
				return err
			}
		}
		return bw.Flush()
	})

	conn, err := netclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Hello("reorder", nil); err != nil {
		t.Fatal(err)
	}
	pl := conn.Pipeline(4, func(any, []bool, wire.Results, int64) error { return nil })
	for i := 0; i < 2; i++ {
		if err := pl.Submit([]trace.Request{{Page: uint64(i)}, {Page: uint64(i + 10)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	err = pl.Drain()
	if err == nil {
		t.Fatal("client accepted out-of-order results")
	}
	if !strings.Contains(err.Error(), "sequence") {
		t.Errorf("error %q does not mention the sequence mismatch", err)
	}
}

// TestHelloRefusesOlderServer: the client applies the same single-version
// guard to the ack — a server acking the previous protocol is refused at
// the handshake with both versions named, before any batch is sent, and
// promptly: the server holds the connection open after its ack, so a
// client that waited on it instead would hang.
func TestHelloRefusesOlderServer(t *testing.T) {
	addr := fakeServer(t, func(fr *wire.FrameReader, bw *bufio.Writer) error {
		if err := ackHello(fr, bw, wire.HelloAck{Version: wire.Version - 1, Shards: 1, Capacity: 100, Window: 8}); err != nil {
			return err
		}
		_, _ = fr.Next() // hold the connection open until the client hangs up
		return nil
	})
	conn, err := netclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	done := make(chan error, 1)
	go func() {
		_, err := conn.Hello("new", nil)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Hello against an older server is still waiting after 10s")
	}
	old, cur := strconv.Itoa(wire.Version-1), strconv.Itoa(wire.Version)
	if err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), cur) {
		t.Fatalf("Hello against a v%s server: err = %v, want a refusal naming versions %s and %s", old, err, old, cur)
	}
}

// TestReplayDialError: with nothing listening, ReplaySource returns the
// dial error instead of a result.
func TestReplayDialError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, err = netclient.ReplaySource(addr, testTrace.Source(), netclient.ReplayOptions{})
	var opErr *net.OpError
	if !errors.As(err, &opErr) || opErr.Op != "dial" {
		t.Fatalf("err = %v, want the dial error", err)
	}
}

// settledGoroutines waits for goroutines that are already on their way out
// and returns the count.
func settledGoroutines(atMost int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > atMost; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestReplayServerClosedMidReplay: a server that goes away while three
// clients are mid-stream ends the replay with an error — the dispatcher
// does not block on the dead connections' queues — and every worker
// goroutine is gone afterwards.
func TestReplayServerClosedMidReplay(t *testing.T) {
	parts := make([]*trace.Trace, 3)
	for i := range parts {
		parts[i] = testTrace
	}
	merged, err := trace.Interleave("DOOMED", parts...)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	srv := server.New(server.Config{Cache: core.Config{Capacity: 2000, Window: 4000}, Shards: 2})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Lock-step single-request frames: slow enough that the close below
		// always lands mid-stream.
		_, err := netclient.ReplaySource(srv.Addr().String(), merged.Source(), netclient.ReplayOptions{BatchSize: 1, Depth: 1})
		done <- err
	}()
	for srv.Cache().Stats().Requests < 300 {
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("replay against a closed server returned no error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("replay still blocked 30s after the server closed")
	}
	if served := srv.Cache().Stats().Requests; served >= uint64(merged.Len()) {
		t.Fatalf("server served all %d requests before closing; the test closed nothing mid-stream", served)
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after the failed replay, %d before", n, base)
	}
}

// TestPipelineWindowCap checks the server's advertised window caps the
// client's requested depth, against both a fake peer and the real server.
func TestPipelineWindowCap(t *testing.T) {
	addr := fakeServer(t, func(fr *wire.FrameReader, bw *bufio.Writer) error {
		return ackHello(fr, bw, wire.HelloAck{Version: wire.Version, Shards: 1, Capacity: 100, Window: 2})
	})
	conn, err := netclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Hello("cap", nil); err != nil {
		t.Fatal(err)
	}
	if d := conn.Pipeline(16, nil).Depth(); d != 2 {
		t.Errorf("depth = %d, want the advertised window 2", d)
	}

	srv := startServer(t, server.Config{Cache: core.Config{Capacity: 100}, Shards: 1, MaxInflight: 4})
	conn2, err := netclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	ack, err := conn2.Hello("cap2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Window != 4 {
		t.Errorf("server advertised window %d, want 4", ack.Window)
	}
	if d := conn2.Pipeline(64, nil).Depth(); d != 4 {
		t.Errorf("depth = %d, want the server window 4", d)
	}
}

// TestPipelineRaceStress drives more concurrent pipelined connections
// than the server has shards, checking total accounting stays exact.
// Run under -race in CI, this is the data-race probe for the split
// reader/writer connection handler and the pooled result slots.
func TestPipelineRaceStress(t *testing.T) {
	const conns = 8
	const batches = 60
	const batchLen = 50
	cfg := core.Config{Capacity: 2000, Window: 4000}
	srv := startServer(t, server.Config{Cache: cfg, Shards: 2, MaxInflight: 8})

	var wg sync.WaitGroup
	var mu sync.Mutex
	var reads, hits uint64
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := netclient.Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			if _, err := conn.Hello("stress", []string{"w=stress"}); err != nil {
				errs <- err
				return
			}
			var myReads, myHits uint64
			pl := conn.Pipeline(6, func(_ any, isRead []bool, res wire.Results, _ int64) error {
				for i, rd := range isRead {
					if rd {
						myReads++
						if res.Hits[i] {
							myHits++
						}
					}
				}
				return nil
			})
			reqs := make([]trace.Request, batchLen)
			for b := 0; b < batches; b++ {
				for i := range reqs {
					op := trace.Read
					if (b+i)%9 == 0 {
						op = trace.Write
					}
					// Overlapping page ranges across connections force
					// shard contention and real hits.
					reqs[i] = trace.Request{Page: uint64((c*31 + b*batchLen + i) % 1500), Op: op}
				}
				if err := pl.Submit(reqs, nil); err != nil {
					errs <- err
					return
				}
			}
			if err := pl.Drain(); err != nil {
				errs <- err
				return
			}
			mu.Lock()
			reads += myReads
			hits += myHits
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Cache().Stats()
	if st.Reads != reads || st.ReadHits != hits {
		t.Errorf("server stats (%d/%d) disagree with client accounting (%d/%d)",
			st.ReadHits, st.Reads, hits, reads)
	}
	if hits == 0 {
		t.Error("no hits at all; stress is vacuous")
	}
	if st.Requests != uint64(conns*batches*batchLen) {
		t.Errorf("server Requests = %d, want %d", st.Requests, conns*batches*batchLen)
	}
}

// TestPipelineSteadyStateAllocs pins the end-to-end zero-allocation
// contract of the pipelined path. AllocsPerRun counts process-wide
// mallocs, so one pin covers both sides at once: the client's
// Submit/complete cycle and the server's reader-decode → producer →
// writer-encode loop, over a real TCP connection. The window stays full
// (submit one, complete one) — the steady state of a saturating replay.
func TestPipelineSteadyStateAllocs(t *testing.T) {
	cfg := core.Config{Capacity: 512, Window: 1 << 30, TopK: 64}
	srv := startServer(t, server.Config{Cache: cfg, Shards: 2, MaxInflight: 8})
	conn, err := netclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Hello("alloc", []string{"w=alloc"}); err != nil {
		t.Fatal(err)
	}
	pl := conn.Pipeline(4, func(any, []bool, wire.Results, int64) error { return nil })

	reqs := make([]trace.Request, wire.DefaultBatch)
	off := 0
	submit := func() {
		for i := range reqs {
			op := trace.Read
			if i%7 == 0 {
				op = trace.Write
			}
			reqs[i] = trace.Request{Page: uint64((off + i*13) % 4096), Op: op}
		}
		off++
		if err := pl.Submit(reqs, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: fill the window and run enough cycles that every pooled
	// buffer on both sides (client pbatches, server slots, producer
	// frames, bufio, cache freelists) has reached steady-state size.
	for i := 0; i < 300; i++ {
		submit()
	}
	if err := pl.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		submit() // refill the window so each measured Submit completes one
	}
	if avg := testing.AllocsPerRun(200, submit); avg > 0.02 {
		t.Errorf("pipelined submit/complete cycle allocates %v allocs per batch (client+server), want 0", avg)
	}
	if err := pl.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestResultsCountOverflowIsAnError scripts a peer that answers a batch with
// a ResultsSeq frame claiming more verdicts than any bitmap could carry —
// counts that wrap the decoder's byte arithmetic to zero, which an empty
// bitmap then satisfied: the client used to panic in make([]bool, n). Each
// must surface from the pipeline as an error, with the peer's goroutine
// gone afterwards.
func TestResultsCountOverflowIsAnError(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, count := range []uint64{math.MaxUint64, math.MaxUint64 - 6, 1 << 40, 8*1 + 1} {
		client, peer := net.Pipe()
		done := make(chan error, 1)
		go func() {
			defer peer.Close()
			fr, bw := wire.NewFrameReader(bufio.NewReader(peer)), bufio.NewWriter(peer)
			reply := func(p []byte) error {
				if err := wire.WriteFrame(bw, p); err != nil {
					return err
				}
				return bw.Flush()
			}
			if _, err := fr.Next(); err != nil { // Hello
				done <- err
				return
			}
			if err := reply(wire.AppendHelloAck(nil, wire.HelloAck{Version: wire.Version, Shards: 1, Capacity: 10, Window: 4})); err != nil {
				done <- err
				return
			}
			if _, err := fr.Next(); err != nil { // BatchSeq 0
				done <- err
				return
			}
			frame := []byte{wire.TypeResultsSeq, 0}
			frame = binary.AppendUvarint(frame, count)
			frame = append(frame, 0) // outqueue depth
			if count == 9 {
				frame = append(frame, 0xff) // one bitmap byte: room for eight
			}
			done <- reply(frame)
		}()

		conn := netclient.NewConn(client)
		if _, err := conn.Hello("victim", nil); err != nil {
			t.Fatal(err)
		}
		pl := conn.Pipeline(2, func(any, []bool, wire.Results, int64) error {
			t.Errorf("count %d: handler ran on a refused frame", count)
			return nil
		})
		if err := pl.Submit(make([]trace.Request, 9), nil); err != nil {
			t.Fatal(err)
		}
		err := pl.Drain()
		if err == nil || !strings.Contains(err.Error(), "results") {
			t.Errorf("count %d: Drain() = %v, want an error naming the results count", count, err)
		}
		conn.Close()
		if err := <-done; err != nil {
			t.Errorf("count %d: scripted peer: %v", count, err)
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines afterwards, %d before", n, base)
	}
}

// TestCountReads holds the additive tally to the loop it replaced, on
// vectors where a verdict is set on a write (never counted) and at lengths
// around a word.
func TestCountReads(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 0; n < 70; n++ {
		isRead, hits := make([]bool, n), make([]bool, n+n%3) // hits may run longer
		for i := range isRead {
			isRead[i], hits[i] = rng.Intn(3) > 0, rng.Intn(2) == 0
		}
		var wantReads, wantHits uint64
		for i, rd := range isRead {
			if rd {
				wantReads++
				if hits[i] {
					wantHits++
				}
			}
		}
		if reads, readHits := netclient.CountReads(isRead, hits); reads != wantReads || readHits != wantHits {
			t.Errorf("n=%d: CountReads = %d, %d, want %d, %d", n, reads, readHits, wantReads, wantHits)
		}
	}
}
