package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/hint"
)

// TestV2RoundTrip checks Save's layout → Scanner reproduces the trace
// exactly, including the dictionary and multi-client tags.
func TestV2RoundTrip(t *testing.T) {
	tr := streamTestTrace()
	got, err := read(bytes.NewReader(encode(t, tr, WriterOptions{}, false)))
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, tr, got)
}

// TestV2CrossRead writes the same trace with Save and as a generator
// streams it (lazy dictionary, small blocks, parallel encoders) and checks
// that Load reads both back identically.
func TestV2CrossRead(t *testing.T) {
	tr := buildTrace("CROSS", 3000, 7)
	dir := t.TempDir()
	saved := filepath.Join(dir, "saved.trc")
	streamed := filepath.Join(dir, "streamed.trc")
	if err := Save(saved, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(streamed, encode(t, tr, WriterOptions{BlockSize: 100, Workers: 3}, true), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{saved, streamed} {
		got, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		tracesEqual(t, tr, got)
	}
}

// TestV2SerialParallelIdentical pins the central writer property: the bytes
// on disk do not depend on the encoder worker count.
func TestV2SerialParallelIdentical(t *testing.T) {
	tr := buildTrace("PAR", 20000, 11)
	encode := func(workers int) []byte {
		var buf bytes.Buffer
		// Small blocks so the parallel path sees many in-flight jobs.
		w := NewWriter(&buf, tr.Name, tr.PageSize, tr.Clients, WriterOptions{BlockSize: 512, Workers: workers})
		for _, k := range tr.Dict.Keys() {
			w.HintDict().InternKey(k)
		}
		for _, r := range tr.Reqs {
			w.AppendReq(r)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := encode(1)
	for _, workers := range []int{2, 4, 8} {
		if par := encode(workers); !bytes.Equal(serial, par) {
			t.Fatalf("workers=%d produced different bytes (%d vs %d)", workers, len(par), len(serial))
		}
	}
}

// TestV2IncrementalDict checks that hint keys interned between appends are
// carried by dict sections, including keys interned after the last request.
func TestV2IncrementalDict(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "inc", 4096, []string{"c"}, WriterOptions{BlockSize: 2, Workers: 1})
	for i := 0; i < 5; i++ {
		id := w.HintDict().InternKey(hint.Make("step", string(rune('a'+i))).Key())
		w.AppendReq(Request{Page: uint64(i), Hint: id})
	}
	// A key the generator interned for a request that was then cut off.
	w.HintDict().InternKey(hint.Make("step", "late").Key())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 {
		t.Fatalf("got %d requests, want 5", got.Len())
	}
	if got.Dict.Len() != 6 {
		t.Fatalf("dict carried %d keys, want 6 (incl. post-block key)", got.Dict.Len())
	}
	if _, ok := got.Dict.Lookup(hint.Make("step", "late")); !ok {
		t.Fatal("post-block dict key lost")
	}
}

// TestV2EmptyTrace checks a stream with zero requests still round-trips.
func TestV2EmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "empty", 4096, []string{"c"}, WriterOptions{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Name != "empty" {
		t.Fatalf("unexpected trace %q len %d", got.Name, got.Len())
	}
}

// TestV2Truncated checks every proper prefix of a v2 stream is rejected —
// the trailer makes truncation always detectable.
func TestV2Truncated(t *testing.T) {
	full := encode(t, streamTestTrace(), WriterOptions{}, false)
	for cut := len(full) - 1; cut > len(binaryMagicV2); cut -= 7 {
		sc, err := NewScanner(bytes.NewReader(full[:cut]))
		if err != nil {
			continue // truncated inside the header: also fine
		}
		for sc.Scan() {
		}
		if sc.Err() == nil {
			t.Fatalf("truncation at %d/%d not detected", cut, len(full))
		}
	}
}

// TestV2CorruptPayload flips one payload byte and requires the checksum to
// catch it (when the damage doesn't already break varint decoding).
func TestV2CorruptPayload(t *testing.T) {
	full := encode(t, buildTrace("CRC", 500, 3), WriterOptions{}, false)
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/2] ^= 0x40
	sc, err := NewScanner(bytes.NewReader(corrupt))
	if err != nil {
		return // corrupted the header: rejected even earlier
	}
	for sc.Scan() {
	}
	if sc.Err() == nil {
		t.Fatal("corrupted payload byte not detected")
	}
}

// TestV2TrailingGarbage checks that bytes after the trailer are rejected.
func TestV2TrailingGarbage(t *testing.T) {
	full := append(encode(t, streamTestTrace(), WriterOptions{}, false), 0x00)
	sc, err := NewScanner(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	for sc.Scan() {
	}
	if sc.Err() == nil || !strings.Contains(sc.Err().Error(), "trailing data") {
		t.Fatalf("trailing garbage not detected: %v", sc.Err())
	}
}

// TestV2ScanSteadyStateAllocs pins the zero-allocation property of v2
// scanning: after warm-up (dict interned, payload buffer sized), scanning
// the remainder of the stream must not allocate.
func TestV2ScanSteadyStateAllocs(t *testing.T) {
	tr := buildTrace("ALLOC", 200000, 9)
	var buf bytes.Buffer
	w := NewWriter(&buf, tr.Name, tr.PageSize, tr.Clients, WriterOptions{BlockSize: 4096, Workers: 1})
	for _, k := range tr.Dict.Keys() {
		w.HintDict().InternKey(k)
	}
	for _, r := range tr.Reqs {
		w.AppendReq(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: first block load sizes the payload buffer.
	for i := 0; i < 5000 && sc.Scan(); i++ {
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	n := 0
	for sc.Scan() {
		n++
	}
	runtime.ReadMemStats(&m1)
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n < 100000 {
		t.Fatalf("steady-state phase scanned only %d requests", n)
	}
	if allocs := m1.Mallocs - m0.Mallocs; allocs > 10 {
		t.Fatalf("steady-state scan of %d requests allocated %d times", n, allocs)
	}
}

// rawStream assembles a v2 stream by hand: a header naming one client,
// a dict section announcing the empty hint set, then one block declaring
// count records over payload and, when trailer is set, a trailer
// consistent with them.
func rawStream(count uint64, payload []byte, trailer bool) []byte {
	b := append([]byte(binaryMagicV2), 1, 't')
	b = binary.AppendUvarint(b, 4096)
	b = append(b, 1, 1, 'c', v2TagDict, 1, 0, v2TagBlock)
	b = binary.AppendUvarint(b, count)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	if trailer {
		b = append(b, v2TagTrailer)
		b = binary.AppendUvarint(b, count)
		b = append(b, 1)
		b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	}
	return b
}

// TestScannerBlockPayloadMismatch: a block must hold exactly its records.
// One declaring more records than its payload holds is refused by name
// (the 25-byte stream below once indexed past its payload and panicked),
// and so is one whose records end before its payload does, even when the
// trailer's counts and checksum agree with it.
func TestScannerBlockPayloadMismatch(t *testing.T) {
	record := []byte{0, 0, 0, 0} // read of page 0 by client 0, hint 0
	for name, c := range map[string]struct {
		stream []byte
		want   string
	}{
		"records past payload": {rawStream(5, record, false), "block 1: payload ends with 4 of its records undecoded"},
		"payload past records": {rawStream(1, append(record, 0, 0), true), "block 1: 2 payload bytes follow its last record"},
		"empty block, payload": {rawStream(0, record, true), "block 1: 4 payload bytes follow its last record"},
	} {
		_, err := read(bytes.NewReader(c.stream))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s (%d bytes): err = %v, want %q", name, len(c.stream), err, c.want)
		}
	}
	if got, err := read(bytes.NewReader(rawStream(1, record, true))); err != nil || got.Len() != 1 {
		t.Fatalf("well-formed control stream: %v", err)
	}
}

// TestScannerLengthClaimsCommitNoMemory: a stream of a few dozen bytes that
// declares a 1 GiB block payload, or a 1 TiB dict key, costs what its bytes
// cost. The buffers grow only as bytes arrive.
func TestScannerLengthClaimsCommitNoMemory(t *testing.T) {
	head := append([]byte(binaryMagicV2), 1, 't')
	head = binary.AppendUvarint(head, 4096)
	head = append(head, 1, 1, 'c')
	tail := bytes.Repeat([]byte{0}, 20)
	block := binary.AppendUvarint(append(append([]byte(nil), head...), v2TagBlock, 1), 1<<30)
	key := binary.AppendUvarint(append(append([]byte(nil), head...), v2TagDict, 1), 1<<40)
	for name, stream := range map[string][]byte{
		"block payload": append(block, tail...),
		"dict key":      append(key, tail...),
	} {
		sc, err := NewScanner(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for sc.Scan() {
		}
		runtime.ReadMemStats(&m1)
		if sc.Err() == nil {
			t.Fatalf("%s: truncated stream accepted", name)
		}
		if c := cap(sc.payload); c > len(stream) {
			t.Errorf("%s: %d-byte stream grew a %d-byte buffer", name, len(stream), c)
		}
		if n := m1.TotalAlloc - m0.TotalAlloc; n > 1<<16 {
			t.Errorf("%s: %d-byte stream allocated %d bytes", name, len(stream), n)
		}
	}
}

// TestPipeRoundTrip streams a trace through NewPipe on a producer goroutine
// and checks the consumer sees identical requests and dictionary.
func TestPipeRoundTrip(t *testing.T) {
	tr := buildTrace("PIPE", 30000, 5)
	pw, pr := NewPipe(tr.Name, tr.PageSize, tr.Clients, 256)
	go func() {
		for _, k := range tr.Dict.Keys() {
			pw.HintDict().InternKey(k)
		}
		for _, r := range tr.Reqs {
			pw.AppendReq(r)
		}
		pw.Close()
	}()
	got, err := Collect(pr)
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, tr, got)
}

// TestPipeCancel checks that closing the reader lets the producer finish
// without blocking, flagging the cancellation.
func TestPipeCancel(t *testing.T) {
	pw, pr := NewPipe("cancel", 4096, []string{"c"}, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100000; i++ {
			pw.AppendReq(Request{Page: uint64(i)})
		}
		pw.Close()
	}()
	if !pr.Scan() {
		t.Fatal("expected at least one request")
	}
	pr.Close()
	<-done
	if !pw.Canceled() {
		t.Fatal("producer did not observe cancellation")
	}
}

// TestLimitSink checks the exact-cut property Limit provides.
func TestLimitSink(t *testing.T) {
	var tr Trace
	tr.Dict = hint.NewDict()
	s := Limit(&tr, 3)
	for i := 0; i < 10; i++ {
		s.AppendReq(Request{Page: uint64(i)})
	}
	if s.Len() != 3 || len(tr.Reqs) != 3 {
		t.Fatalf("limit leaked: sink len %d, trace len %d", s.Len(), len(tr.Reqs))
	}
	if tr.Reqs[2].Page != 2 {
		t.Fatalf("wrong requests kept: %+v", tr.Reqs)
	}
}

// TestMemIter checks Trace.Iter matches the slice.
func TestMemIter(t *testing.T) {
	tr := streamTestTrace()
	it := tr.Iter()
	defer it.Close()
	got, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, tr, got)
}
