package trace

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/hint"
)

// streamTestTrace builds a small multi-client trace with several hint sets
// and page deltas in both directions.
func streamTestTrace() *Trace {
	t := New("stream", 8192)
	t.Clients = []string{"alpha", "beta"}
	h1 := t.Dict.Intern(hint.Make("reqtype", "seq"))
	h2 := t.Dict.Intern(hint.Make("reqtype", "rand", "table", "stock"))
	h0 := t.Dict.Intern(nil)
	pages := []uint64{10, 11, 12, 5, 900, 11, 3, 900}
	hints := []hint.ID{h1, h1, h2, h0, h2, h1, h0, h2}
	for i, p := range pages {
		op := Read
		if i%3 == 2 {
			op = Write
		}
		t.Reqs = append(t.Reqs, Request{Page: p, Hint: hints[i], Op: op, Client: uint8(i % 2)})
	}
	return t
}

// collect drains a scanner into a slice.
func collect(t *testing.T, sc *Scanner) []Request {
	t.Helper()
	var out []Request
	for run := sc.Next(); len(run) > 0; run = sc.Next() {
		out = append(out, run...)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestScannerBinary checks the scanner's header, client list, requests and
// dictionary against the trace that was written, with the dictionary
// arriving in sections between one-request blocks.
func TestScannerBinary(t *testing.T) {
	tr := streamTestTrace()
	sc, err := NewScanner(bytes.NewReader(encode(t, tr, WriterOptions{BlockSize: 1}, true)))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name() != tr.Name || sc.PageSize() != tr.PageSize {
		t.Errorf("header = %q/%d, want %q/%d", sc.Name(), sc.PageSize(), tr.Name, tr.PageSize)
	}
	if got, want := sc.Clients(), tr.Clients; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Clients = %v, want %v", got, want)
	}
	got := collect(t, sc)
	if len(got) != tr.Len() {
		t.Fatalf("scanned %d requests, want %d", len(got), tr.Len())
	}
	for i, r := range got {
		if r != tr.Reqs[i] {
			t.Errorf("request %d = %+v, want %+v", i, r, tr.Reqs[i])
		}
	}
	if sc.HintDict().Len() != tr.Dict.Len() {
		t.Fatalf("dict has %d keys, want %d", sc.HintDict().Len(), tr.Dict.Len())
	}
	for id, key := range tr.Dict.Keys() {
		if sc.HintDict().Key(hint.ID(id)) != key {
			t.Errorf("dict[%d] = %q, want %q", id, sc.HintDict().Key(hint.ID(id)), key)
		}
	}
}

// TestScannerOpen round-trips through a file and exercises Close.
func TestScannerOpen(t *testing.T) {
	tr := streamTestTrace()
	path := filepath.Join(t.TempDir(), "s.trc")
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	sc, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, sc); len(got) != tr.Len() {
		t.Errorf("scanned %d requests, want %d", len(got), tr.Len())
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScannerTruncatedBinary ensures a cut-off stream surfaces an error
// rather than a silent short read.
func TestScannerTruncatedBinary(t *testing.T) {
	full := encode(t, streamTestTrace(), WriterOptions{}, false)
	sc, err := NewScanner(bytes.NewReader(full[:len(full)-3]))
	if err != nil {
		t.Fatal(err)
	}
	for len(sc.Next()) > 0 {
	}
	if sc.Err() == nil {
		t.Error("truncated stream scanned cleanly")
	}
}

// TestSplitClients checks the per-client partition helper.
func TestSplitClients(t *testing.T) {
	tr := streamTestTrace()
	streams := tr.SplitClients()
	if len(streams) != 2 {
		t.Fatalf("got %d streams, want 2", len(streams))
	}
	total := 0
	for c, reqs := range streams {
		total += len(reqs)
		for i, r := range reqs {
			if int(r.Client) != c {
				t.Errorf("stream %d request %d has client %d", c, i, r.Client)
			}
		}
	}
	if total != tr.Len() {
		t.Errorf("streams cover %d requests, want %d", total, tr.Len())
	}
}

// TestSplitClientsSizesOnce: on three clients of uneven length, the split
// equals an append loop's, and it allocates each stream once at its exact
// size — at most one allocation per client plus two.
func TestSplitClientsSizesOnce(t *testing.T) {
	parts := []*Trace{buildTrace("a", 700, 1), buildTrace("b", 1000, 2), buildTrace("c", 300, 3)}
	merged := New("uneven", 4096)
	merged.Clients = []string{"a", "b", "c"}
	if err := Merge(merged, merged.Clients, []Iterator{parts[0].Iter(), parts[1].Iter(), parts[2].Iter()}); err != nil {
		t.Fatal(err)
	}
	want := make([][]Request, len(merged.Clients))
	for _, r := range merged.Reqs {
		want[r.Client] = append(want[r.Client], r)
	}
	got := merged.SplitClients()
	for c := range want {
		if !slices.Equal(got[c], want[c]) || cap(got[c]) != len(want[c]) {
			t.Errorf("client %d: %d requests in a stream of capacity %d, want the append loop's %d", c, len(got[c]), cap(got[c]), len(want[c]))
		}
	}
	if n := testing.AllocsPerRun(10, func() { merged.SplitClients() }); n > float64(len(merged.Clients)+2) {
		t.Errorf("SplitClients allocated %.0f times for %d clients", n, len(merged.Clients))
	}
}

// BenchmarkScannerNext prices decoding a v2 stream, run by run.
func BenchmarkScannerNext(b *testing.B) {
	tr := buildTrace("SCAN", 200000, 5)
	data := encode(b, tr, WriterOptions{}, false)
	for b.Loop() {
		sc, err := NewScanner(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for len(sc.Next()) > 0 {
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()), "ns/req")
}

// BenchmarkSplitClients prices splitting a three-client trace into its
// clients' streams.
func BenchmarkSplitClients(b *testing.B) {
	merged, err := Interleave("SPLIT", buildTrace("a", 100000, 1), buildTrace("b", 100000, 2), buildTrace("c", 100000, 3))
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		merged.SplitClients()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*merged.Len()), "ns/req")
}
