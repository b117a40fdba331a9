package trace

import (
	"bytes"
	"path/filepath"
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
	for sc.Scan() {
		out = append(out, sc.Request())
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
	for sc.Scan() {
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
