package server

import (
	"bufio"
	"errors"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestWindowBackpressure drives one connection handler over a net.Pipe,
// whose writes complete only when the other end reads, so the test decides
// exactly when the server's writer can make progress. A client that stops
// reading results strands the writer in a flush; the result slots stay out;
// with the window (2) full the reader stops taking frames — the client's
// next write finds no reader and times out. That is the flow control the
// reader/writer split has always had, and decoding frames in place must not
// have changed it. When the client reads again everything resumes: every
// batch is answered, in order.
func TestWindowBackpressure(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Cache: core.Config{Capacity: 100}, Shards: 2, MaxInflight: 2})
	client, srvEnd := net.Pipe()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		s.handle(srvEnd)
	}()
	fr, bw := wire.NewFrameReader(bufio.NewReader(client)), bufio.NewWriter(client)
	send := func(p []byte) error {
		if err := wire.WriteFrame(bw, p); err != nil {
			t.Fatal(err)
		}
		return bw.Flush()
	}
	recv := func(seq uint64) {
		t.Helper()
		p, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got, _, err := wire.DecodeResultsSeq(p, wire.Results{}); err != nil || got != seq {
			t.Fatalf("want results %d, got %d, err %v", seq, got, err)
		}
	}
	if err := client.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := send(wire.AppendHello(nil, wire.Hello{Version: wire.Version, Client: "stalled", Keys: []string{"a=1"}})); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}

	// The client sends and never reads. How many frames go through depends
	// on when the writer first finds its queue empty and flushes; from then
	// on it is stuck holding a slot, the next frame takes the other, one more
	// is read and waits for a slot, and the frame after that has no reader.
	batch := func(seq uint64) []byte { return wire.AppendBatchSeq(nil, seq, []trace.Request{{Page: seq}}) }
	var sent uint64
	for ; ; sent++ {
		if sent == 50 {
			t.Fatal("50 frames accepted from a client that reads nothing: no backpressure")
		}
		if err := client.SetWriteDeadline(time.Now().Add(300 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if err := send(batch(sent)); errors.Is(err, os.ErrDeadlineExceeded) {
			break
		} else if err != nil {
			t.Fatalf("frame %d: %v", sent, err)
		}
	}
	if got := s.inflight.Value(); got != 2 {
		t.Errorf("%d batches in flight at the stall, want the window of 2", got)
	}
	if got := s.cache.Stats().Requests; got != sent-1 {
		t.Errorf("%d requests served at the stall with %d frames taken, want all but the last, which has no slot yet", got, sent)
	}

	// The timed-out write delivered nothing (nobody was reading), so that
	// frame can go again whole once results are being read.
	if err := client.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	bw.Reset(client)
	resent := make(chan error, 1)
	go func() { resent <- send(batch(sent)) }()
	for seq := uint64(0); seq <= sent; seq++ {
		recv(seq)
	}
	if err := <-resent; err != nil {
		t.Fatalf("frame %d after resuming: %v", sent, err)
	}
	client.Close()
	<-handled
	if n := s.inflight.Value(); n != 0 {
		t.Errorf("%d batches in flight after the connection closed", n)
	}
	s.Close()
	for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines afterwards, %d before", n, base)
	}
}
