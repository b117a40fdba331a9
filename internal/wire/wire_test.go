package wire

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestHelloRoundTrip covers Hello and HelloAck encode/decode.
func TestHelloRoundTrip(t *testing.T) {
	cases := []Hello{
		{Version: Version, Client: "DB2_C60", Keys: []string{"", "reqtype=seq", "reqtype=rand|table=stock"}},
		{Version: 7, Client: "", Keys: nil},
		{Version: 0, Client: "a client with spaces", Keys: []string{""}},
	}
	for _, h := range cases {
		got, err := DecodeHello(AppendHello(nil, h))
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if got.Version != h.Version || got.Client != h.Client || !reflect.DeepEqual(got.Keys, append([]string{}, h.Keys...)) {
			t.Errorf("round trip: got %+v, want %+v", got, h)
		}
	}
	acks := []HelloAck{{}, {Version: Version, Shards: 8, Capacity: 18000, Window: 32}, {Version: 2, Window: 1}}
	for _, a := range acks {
		got, err := DecodeHelloAck(AppendHelloAck(nil, a))
		if err != nil {
			t.Fatalf("%+v: %v", a, err)
		}
		if got != a {
			t.Errorf("round trip: got %+v, want %+v", got, a)
		}
	}
}

// TestInternRoundTrip covers the mid-stream hint announcement frame.
func TestInternRoundTrip(t *testing.T) {
	for _, keys := range [][]string{nil, {"a=b"}, {"", "x=y|z=w", "q=1"}} {
		got, err := DecodeIntern(AppendIntern(nil, keys))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(keys) {
			t.Fatalf("got %d keys, want %d", len(got), len(keys))
		}
		for i := range keys {
			if got[i] != keys[i] {
				t.Errorf("key %d = %q, want %q", i, got[i], keys[i])
			}
		}
	}
}

// decodeBatch collects a BatchSeq payload through the streaming decoder,
// the only batch decoder there is.
func decodeBatch(p []byte) (uint64, []trace.Request, error) {
	var reqs []trace.Request
	seq, _, err := DecodeBatchStream(p,
		func(n int) error { reqs = make([]trace.Request, 0, n); return nil },
		func(_ int, r trace.Request) error { reqs = append(reqs, r); return nil })
	return seq, reqs, err
}

// TestBatchRoundTrip is the table-driven encode/decode check for request
// batches, including descending pages (negative deltas), extreme values
// and extreme sequence numbers.
func TestBatchRoundTrip(t *testing.T) {
	cases := [][]trace.Request{
		nil,
		{{Page: 0, Hint: 0, Op: trace.Read}},
		{
			{Page: 100, Hint: 1, Op: trace.Read},
			{Page: 101, Hint: 1, Op: trace.Read, Client: 3},
			{Page: 5, Hint: 2, Op: trace.Write},
			{Page: math.MaxUint64, Hint: math.MaxUint32, Op: trace.Read},
			{Page: 0, Hint: 0, Op: trace.Write},
		},
	}
	for _, reqs := range cases {
		for _, seq := range []uint64{0, 1, 511, math.MaxUint64} {
			gotSeq, got, err := decodeBatch(AppendBatchSeq(nil, seq, reqs))
			if err != nil {
				t.Fatalf("seq=%d %+v: %v", seq, reqs, err)
			}
			if gotSeq != seq || len(got) != len(reqs) {
				t.Fatalf("got seq=%d n=%d, want seq=%d n=%d", gotSeq, len(got), seq, len(reqs))
			}
			for i, r := range reqs {
				r.Client = 0 // client travels out of band
				if got[i] != r {
					t.Errorf("request %d = %+v, want %+v", i, got[i], r)
				}
			}
		}
	}
}

// TestResultsRoundTrip covers hit bitmaps at every length mod 8, and reuse
// of a caller-provided Hits buffer.
func TestResultsRoundTrip(t *testing.T) {
	buf := Results{Hits: make([]bool, 0, 32)}
	for n := 0; n <= 17; n++ {
		hits := make([]bool, n)
		for i := range hits {
			hits[i] = i%3 == 0
		}
		in := Results{Hits: hits, OutqueueDepth: n * 1000}
		seq, got, err := DecodeResultsSeq(AppendResultsSeq(nil, uint64(n), in), buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if seq != uint64(n) || got.OutqueueDepth != in.OutqueueDepth {
			t.Errorf("n=%d: seq %d depth %d, want %d %d", n, seq, got.OutqueueDepth, n, in.OutqueueDepth)
		}
		if len(got.Hits) != n {
			t.Fatalf("n=%d: got %d hits", n, len(got.Hits))
		}
		for i := range hits {
			if got.Hits[i] != hits[i] {
				t.Errorf("n=%d: hit %d = %v, want %v", n, i, got.Hits[i], hits[i])
			}
		}
		if n > 0 && &got.Hits[0] != &buf.Hits[:1][0] {
			t.Errorf("n=%d: DecodeResultsSeq did not reuse the provided buffer", n)
		}
	}
}

// TestNegotiate pins the single-version guard for both handshake
// directions: exactly Version is spoken, newer peers are answered with it,
// older ones are refused with both versions named — version 3, whose
// request records were varints, among them.
func TestNegotiate(t *testing.T) {
	cases := []struct {
		peer    int
		want    int
		wantErr bool
	}{
		{peer: Version, want: Version},
		{peer: Version + 5, want: Version},
		{peer: Version - 1, wantErr: true},
		{peer: 3, wantErr: true},
		{peer: 1, wantErr: true},
		{peer: 0, wantErr: true},
		{peer: -3, wantErr: true},
	}
	for _, c := range cases {
		got, err := Negotiate(c.peer)
		if c.wantErr != (err != nil) {
			t.Errorf("Negotiate(%d): err = %v, wantErr %v", c.peer, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("Negotiate(%d) = %d, want %d", c.peer, got, c.want)
		}
		if c.wantErr && !(strings.Contains(err.Error(), strconv.Itoa(c.peer)) && strings.Contains(err.Error(), strconv.Itoa(Version))) {
			t.Errorf("Negotiate(%d) error %q does not name both versions", c.peer, err)
		}
	}
}

// TestErrorRoundTrip covers the error frame.
func TestErrorRoundTrip(t *testing.T) {
	msg, err := DecodeError(AppendError(nil, "bad hint index"))
	if err != nil {
		t.Fatal(err)
	}
	if msg != "bad hint index" {
		t.Errorf("got %q", msg)
	}
}

// TestFrameIO round-trips several frames through one buffered stream.
func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	payloads := [][]byte{
		AppendHello(nil, Hello{Version: Version, Client: "c"}),
		AppendBatchSeq(nil, 0, []trace.Request{{Page: 1}, {Page: 2}}),
		AppendResultsSeq(nil, 0, Results{Hits: []bool{true, false}, OutqueueDepth: 42}),
		// Around the reader's 4096 bytes: the largest frame copied out of
		// its buffer and the smallest collected past it; then short ones.
		bytes.Repeat([]byte{0xa5}, 4096),
		bytes.Repeat([]byte{0x5a}, 4097),
		{},
		{7},
		{7, 8, 9},
	}
	for _, p := range payloads {
		if err := WriteFrame(w, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewFrameReader(bufio.NewReader(&buf))
	for i, want := range payloads {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d: got % x, want % x", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestFrameReaderEdges feeds a FrameReader over a 64-byte bufio.Reader from
// a pipe, one frame per write, each written only once the one before has
// been returned — so a reader that waits for more bytes than a frame has
// (a five-byte prefix peek on a two-byte frame, say) deadlocks and the test
// times out. Sizes: 0, 1 and 3 payload bytes, exactly the reader's size (the
// largest view), a byte over (the smallest spill), larger frames before and
// after a small one (the spill buffer is reused, views and spills alternate),
// and one frame split across two writes.
func TestFrameReaderEdges(t *testing.T) {
	const readerSize = 64
	sizes := []int{0, 1, 3, readerSize, readerSize + 1, 1000, 2, 300}
	frames := make([][]byte, len(sizes))
	for i, n := range sizes {
		frames[i] = make([]byte, n)
		for j := range frames[i] {
			frames[i][j] = byte(i*31 + j)
		}
	}
	pr, pw := io.Pipe()
	defer pr.Close()
	next := make(chan struct{})
	go func() {
		defer pw.Close()
		for i, p := range frames {
			var enc bytes.Buffer
			w := bufio.NewWriter(&enc)
			if err := WriteFrame(w, p); err != nil {
				t.Error(err)
				return
			}
			w.Flush()
			b := enc.Bytes()
			if i == len(frames)-1 {
				// The last frame arrives in two writes, cut inside its payload.
				if _, err := pw.Write(b[:len(b)/2]); err != nil {
					return
				}
				b = b[len(b)/2:]
			}
			if _, err := pw.Write(b); err != nil {
				return
			}
			<-next
		}
	}()
	fr := NewFrameReader(bufio.NewReaderSize(pr, readerSize))
	for i, want := range frames {
		var got []byte
		var err error
		done := make(chan struct{})
		go func() {
			got, err = fr.Next()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d (%d bytes): Next is waiting for bytes the frame does not have", i, len(want))
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes % x, want %d bytes", i, len(got), got, len(want))
		}
		if fr.Ready() {
			t.Errorf("frame %d: Ready with nothing more written", i)
		}
		next <- struct{}{}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Errorf("after the last frame: err = %v, want io.EOF", err)
	}
}

// TestFrameReaderReady pins the "would Next block?" test of the flush rule:
// true while a whole frame is buffered, false on an empty buffer, on part of
// a prefix and on part of a payload, true for a prefix Next refuses without
// reading further — and asking releases the view, so the frame after is next.
func TestFrameReaderReady(t *testing.T) {
	var stream bytes.Buffer
	w := bufio.NewWriter(&stream)
	for _, p := range [][]byte{{1, 2, 3}, {}, make([]byte, 200)} {
		if err := WriteFrame(w, p); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	stream.Write([]byte{0xc8}) // first byte of a two-byte prefix
	fr := NewFrameReader(bufio.NewReader(&stream))
	if fr.Ready() {
		t.Error("Ready before anything was read into the buffer")
	}
	for i, n := range []int{3, 0, 200} {
		p, err := fr.Next()
		if err != nil || len(p) != n {
			t.Fatalf("frame %d: %d bytes, err %v; want %d", i, len(p), err, n)
		}
		if got, want := fr.Ready(), i < 2; got != want {
			t.Errorf("after frame %d: Ready = %v, want %v", i, got, want)
		}
	}
	if _, err := fr.Next(); err == nil || err == io.EOF {
		t.Errorf("stream cut inside a prefix: err = %v, want a framing error", err)
	}

	// Part of a payload, then a prefix beyond MaxFrame. Peek pulls the bytes
	// into the buffer; Ready itself never reads.
	part := NewFrameReader(bufio.NewReader(bytes.NewReader([]byte{5, 1, 2})))
	if _, err := part.r.Peek(1); err != nil {
		t.Fatal(err)
	}
	if part.Ready() {
		t.Error("Ready with three of a frame's six bytes buffered")
	}
	huge := NewFrameReader(bufio.NewReader(bytes.NewReader([]byte{0x81, 0x80, 0x80, 0x08})))
	if _, err := huge.r.Peek(1); err != nil {
		t.Fatal(err)
	}
	if !huge.Ready() {
		t.Error("not Ready for a prefix above MaxFrame, which Next refuses without reading")
	}
	if _, err := huge.Next(); err == nil {
		t.Error("Next accepted a prefix above MaxFrame")
	}
}

// TestDecodeRejectsGarbage ensures decoders fail cleanly on wrong types,
// truncation, and trailing bytes instead of panicking or over-allocating.
func TestDecodeRejectsGarbage(t *testing.T) {
	hello := AppendHello(nil, Hello{Version: 1, Client: "x", Keys: []string{"a=b"}})
	batch := AppendBatchSeq(nil, 0, []trace.Request{{Page: 9}})
	if _, _, err := decodeBatch(hello); err == nil {
		t.Error("DecodeBatchStream accepted a Hello frame")
	}
	if _, err := DecodeHello(batch); err == nil {
		t.Error("DecodeHello accepted a BatchSeq frame")
	}
	if _, err := DecodeHello(nil); err == nil {
		t.Error("DecodeHello accepted an empty payload")
	}
	for cut := 1; cut < len(hello); cut++ {
		if _, err := DecodeHello(hello[:cut]); err == nil {
			t.Errorf("DecodeHello accepted a frame truncated at %d", cut)
		}
	}
	if _, err := DecodeHello(append(hello[:len(hello):len(hello)], 0)); err == nil {
		t.Error("DecodeHello accepted trailing bytes")
	}
	// A batch header (sequence number, count, base page) claiming far more
	// requests than the frame could hold must fail fast rather than
	// allocate; so must one claiming a single record more than it holds.
	huge := []byte{TypeBatchSeq, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0}
	if _, _, err := DecodeBatchStream(huge, func(int) error { t.Error("begin called"); return nil }, nil); err == nil {
		t.Error("DecodeBatchStream accepted an impossible request count")
	}
	short := append([]byte{TypeBatchSeq, 0, 2, 0}, make([]byte, 2*recordSize-1)...)
	if _, _, err := DecodeBatch(short, nil); err == nil {
		t.Error("DecodeBatch accepted two records in nine bytes")
	}
	// The reserved type bytes of the retired untagged frames decode as
	// nothing: same bodies as a BatchSeq/ResultsSeq minus the sequence
	// number, under type 4 and 5.
	if _, _, err := decodeBatch(append([]byte{4}, batch[2:]...)); err == nil {
		t.Error("DecodeBatchStream accepted a retired type-4 Batch frame")
	}
	if _, _, err := DecodeResultsSeq([]byte{5, 0, 0}, Results{}); err == nil {
		t.Error("DecodeResultsSeq accepted a retired type-5 Results frame")
	}
}

// FuzzDecodeBatchStream throws arbitrary bytes at the batch decoder and,
// when a payload decodes, re-encodes the result to check the codec closes.
// The seeds are those of the two retired slice-decoder targets: the bodies
// the untagged Batch frame carried (under its reserved type byte 4, and
// re-tagged as a BatchSeq) and the sequence-tagged frames.
func FuzzDecodeBatchStream(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendBatchSeq(nil, 0, []trace.Request{{Page: 1, Hint: 2}, {Page: 100, Op: trace.Write}}))
	f.Add([]byte{4, 3, 0, 2, 0})
	f.Add([]byte{TypeBatchSeq, 0, 3, 0, 2, 0})
	f.Add(AppendBatchSeq(nil, 5, []trace.Request{{Page: 1, Hint: 2}, {Page: 100, Op: trace.Write}}))
	f.Add([]byte{TypeBatchSeq, 7, 3, 0, 2, 0})
	f.Fuzz(func(t *testing.T, p []byte) {
		seq, reqs, err := decodeBatch(p)
		if err != nil {
			return
		}
		seq2, out, err := decodeBatch(AppendBatchSeq(nil, seq, reqs))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if seq2 != seq || len(out) != len(reqs) {
			t.Fatalf("round trip changed: seq %d->%d, n %d->%d", seq, seq2, len(reqs), len(out))
		}
		for i := range reqs {
			if out[i] != reqs[i] {
				t.Fatalf("request %d changed: %+v -> %+v", i, reqs[i], out[i])
			}
		}
	})
}

// FuzzDecodeHello does the same for the handshake frame.
func FuzzDecodeHello(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendHello(nil, Hello{Version: 1, Client: "c", Keys: []string{"a=b", ""}}))
	f.Fuzz(func(t *testing.T, p []byte) {
		h, err := DecodeHello(p)
		if err != nil {
			return
		}
		got, err := DecodeHello(AppendHello(nil, h))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if got.Version != h.Version || got.Client != h.Client || len(got.Keys) != len(h.Keys) {
			t.Fatalf("round trip changed: %+v -> %+v", h, got)
		}
	})
}

// TestHelloAckWindow pins that Window is always on the wire, whatever
// version the ack names: an ack cut before it is truncated, not "old".
func TestHelloAckWindow(t *testing.T) {
	for _, v := range []int{Version, Version - 1, Version + 1} {
		p := AppendHelloAck(nil, HelloAck{Version: v, Shards: 8, Capacity: 18000, Window: 32})
		got, err := DecodeHelloAck(p)
		if err != nil || got.Window != 32 {
			t.Errorf("version %d: window %d, err %v; want 32", v, got.Window, err)
		}
		if _, err := DecodeHelloAck(p[:len(p)-1]); err == nil {
			t.Errorf("version %d: ack without a window decoded", v)
		}
	}
}

// TestDecodeBatchStreamCallbackError checks callback errors abort the
// decode and come back unwrapped.
func TestDecodeBatchStreamCallbackError(t *testing.T) {
	p := AppendBatchSeq(nil, 3, []trace.Request{{Page: 1}, {Page: 2}})
	sentinel := io.ErrUnexpectedEOF
	if _, _, err := DecodeBatchStream(p, func(int) error { return sentinel }, nil); err != sentinel {
		t.Errorf("begin error: got %v, want sentinel", err)
	}
	calls := 0
	_, _, err := DecodeBatchStream(p,
		func(int) error { return nil },
		func(int, trace.Request) error { calls++; return sentinel })
	if err != sentinel || calls != 1 {
		t.Errorf("emit error: got %v after %d calls, want sentinel after 1", err, calls)
	}
}

// TestBatchSeqRejectsGarbage checks truncation and trailing bytes fail
// cleanly for both sequence-tagged frames.
func TestBatchSeqRejectsGarbage(t *testing.T) {
	// Short records around a long one: every cut, in the header, in a word
	// or in the escaped record's fields, is refused.
	b := AppendBatchSeq(nil, 9, []trace.Request{{Page: 3, Hint: 1}, {Page: 1 << 44, Hint: 1 << 20}, {Page: 1, Op: trace.Write}})
	for cut := 1; cut < len(b); cut++ {
		if _, _, err := DecodeBatchStream(b[:cut], func(int) error { return nil },
			func(int, trace.Request) error { return nil }); err == nil {
			t.Errorf("DecodeBatchStream accepted a frame truncated at %d", cut)
		}
	}
	if _, _, err := decodeBatch(append(b[:len(b):len(b)], 0)); err == nil {
		t.Error("DecodeBatchStream accepted trailing bytes")
	}
	r := AppendResultsSeq(nil, 9, Results{Hits: []bool{true, false, true}, OutqueueDepth: 4})
	for cut := 1; cut < len(r); cut++ {
		if _, _, err := DecodeResultsSeq(r[:cut], Results{}); err == nil {
			t.Errorf("DecodeResultsSeq accepted a frame truncated at %d", cut)
		}
	}
	if _, _, err := DecodeResultsSeq(append(r[:len(r):len(r)], 0), Results{}); err == nil {
		t.Error("DecodeResultsSeq accepted trailing bytes")
	}
}

// FuzzDecodeResultsSeq covers the bitmap decoder.
func FuzzDecodeResultsSeq(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendResultsSeq(nil, 12, Results{Hits: []bool{true, false, true}, OutqueueDepth: 9}))
	f.Add([]byte{5, 3, 9, 0b101}) // the same body as the retired untagged Results frame
	for _, p := range overflowResults() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		seq, r, err := DecodeResultsSeq(p, Results{})
		if err != nil {
			return
		}
		seq2, got, err := DecodeResultsSeq(AppendResultsSeq(nil, seq, r), Results{})
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if seq2 != seq || got.OutqueueDepth != r.OutqueueDepth || len(got.Hits) != len(r.Hits) {
			t.Fatalf("round trip changed: %+v -> %+v", r, got)
		}
	})
}
