package wire

import (
	"bufio"
	"bytes"
	"testing"

	"repro/internal/hint"
	"repro/internal/trace"
)

// TestSeqRoundTripAllocs pins the zero-allocation contract of the wire hot
// path: once the reusable buffers have grown to the batch size, encoding a
// batch, framing it, taking the frame as a view of the read buffer and
// decoding it into a reused request slice (and once more through the
// callback adapter the benchmark harness calls) — and the same for the
// results direction — allocates nothing.
func TestSeqRoundTripAllocs(t *testing.T) {
	reqs := make([]trace.Request, DefaultBatch)
	for i := range reqs {
		op := trace.Read
		if i%7 == 0 {
			op = trace.Write
		}
		reqs[i] = trace.Request{Page: uint64(i * 13), Hint: hint.ID(i % 32), Op: op}
	}
	hits := make([]bool, DefaultBatch)
	for i := range hits {
		hits[i] = i%3 == 0
	}

	var (
		enc []byte
		got []trace.Request
		res Results
		seq uint64
		buf bytes.Buffer
	)
	dec := make([]trace.Request, DefaultBatch)
	bw := bufio.NewWriterSize(&buf, 1<<16)
	fr := NewFrameReader(bufio.NewReaderSize(&buf, 1<<16))
	// Hoisted callbacks: method-value captures here would allocate per call.
	begin := func(n int) error { dec = dec[:n]; return nil }
	emit := func(i int, r trace.Request) error { dec[i] = r; return nil }
	roundTrip := func() {
		seq++
		enc = AppendBatchSeq(enc[:0], seq, reqs)
		if err := WriteFrame(bw, enc); err != nil {
			t.Fatal(err)
		}
		enc = AppendResultsSeq(enc[:0], seq, Results{Hits: hits, OutqueueDepth: 42})
		if err := WriteFrame(bw, enc); err != nil {
			t.Fatal(err)
		}
		bw.Flush()

		p, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		gotSeq, tagged, err := DecodeBatchStream(p, begin, emit)
		if err != nil || !tagged || gotSeq != seq {
			t.Fatalf("stream decode: seq=%d tagged=%v err=%v", gotSeq, tagged, err)
		}
		if gotSeq, got, err = DecodeBatch(p, got); err != nil || gotSeq != seq || len(got) != len(reqs) {
			t.Fatalf("batch decode: seq=%d n=%d err=%v", gotSeq, len(got), err)
		}
		if !fr.Ready() {
			t.Fatal("results frame not buffered behind the batch frame")
		}
		if p, err = fr.Next(); err != nil {
			t.Fatal(err)
		}
		gotSeq, r, err := DecodeResultsSeq(p, res)
		if err != nil || gotSeq != seq || len(r.Hits) != len(hits) {
			t.Fatalf("results decode: seq=%d n=%d err=%v", gotSeq, len(r.Hits), err)
		}
		res = r
		if fr.Ready() {
			t.Fatal("Ready on a drained stream")
		}
	}
	roundTrip()
	if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
		t.Errorf("seq wire round trip allocates %v allocs per batch in steady state, want 0", avg)
	}
}
