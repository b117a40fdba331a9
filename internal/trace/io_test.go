package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hint"
)

func tracesEqual(t *testing.T, a, b *Trace) {
	t.Helper()
	if a.Name != b.Name || a.PageSize != b.PageSize {
		t.Fatalf("header mismatch: %q/%d vs %q/%d", a.Name, a.PageSize, b.Name, b.PageSize)
	}
	if len(a.Clients) != len(b.Clients) {
		t.Fatalf("clients mismatch: %v vs %v", a.Clients, b.Clients)
	}
	for i := range a.Clients {
		if a.Clients[i] != b.Clients[i] {
			t.Fatalf("client %d mismatch", i)
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("length mismatch: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Reqs {
		ra, rb := a.Reqs[i], b.Reqs[i]
		if ra.Page != rb.Page || ra.Op != rb.Op || ra.Client != rb.Client {
			t.Fatalf("request %d differs: %+v vs %+v", i, ra, rb)
		}
		if a.Dict.Key(ra.Hint) != b.Dict.Key(rb.Hint) {
			t.Fatalf("request %d hint differs: %q vs %q", i,
				a.Dict.Key(ra.Hint), b.Dict.Key(rb.Hint))
		}
	}
}

// read is the one way a serialised trace comes back: a Scanner drained by
// Collect, exactly what Load does to a file.
func read(r io.Reader) (*Trace, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	return Collect(sc)
}

// encode serialises tr in memory. By default the whole dictionary leads the
// stream, as Save writes it. With lazy set a key is interned only when a
// request first needs it (in ID order, so IDs are preserved, and the keys
// no request references just before the trailer), so dict sections
// interleave with request blocks the way a generator's stream does.
func encode(tb testing.TB, tr *Trace, opts WriterOptions, lazy bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, tr.Name, tr.PageSize, tr.Clients, opts)
	if !lazy {
		if err := w.writeAll(tr); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	d := w.HintDict()
	for _, r := range tr.Reqs {
		for id := d.Len(); id <= int(r.Hint) && id < tr.Dict.Len(); id++ {
			d.InternKey(tr.Dict.Key(hint.ID(id)))
		}
		w.AppendReq(r)
	}
	for id := d.Len(); id < tr.Dict.Len(); id++ {
		d.InternKey(tr.Dict.Key(hint.ID(id)))
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryRoundTrip round-trips a trace whose dictionary streams in
// sections between small blocks.
func TestBinaryRoundTrip(t *testing.T) {
	tr := buildTrace("DB2_C60", 2000, 42)
	got, err := read(bytes.NewReader(encode(t, tr, WriterOptions{BlockSize: 64}, true)))
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, tr, got)
}

// TestBinaryRoundTripQuick property-tests the codec over random traces,
// including multi-client ones, large page numbers, block sizes down to one
// request, and both dictionary layouts.
func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New("q", 1<<uint(rng.Intn(16)))
		tr.Clients = []string{"a", "b", "c"}
		nh := 1 + rng.Intn(5)
		for i := 0; i < nh; i++ {
			tr.Dict.InternKey(hint.Make("h", string(rune('a'+i))).Key())
		}
		n := rng.Intn(500)
		for i := 0; i < n; i++ {
			tr.Reqs = append(tr.Reqs, Request{
				Page:   rng.Uint64() >> uint(rng.Intn(40)),
				Hint:   hint.ID(rng.Intn(nh)),
				Op:     Op(rng.Intn(2)),
				Client: uint8(rng.Intn(3)),
			})
		}
		opts := WriterOptions{BlockSize: 1 + rng.Intn(100), Workers: 1 + rng.Intn(3)}
		got, err := read(bytes.NewReader(encode(t, tr, opts, rng.Intn(2) == 0)))
		if err != nil || got.Len() != tr.Len() || got.Dict.Len() != tr.Dict.Len() {
			return false
		}
		for i := range tr.Reqs {
			if got.Reqs[i] != tr.Reqs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReadRejectsGarbage: input without the magic is refused, as is a
// header declaring more clients than a request can name, and a stream cut
// anywhere — inside the magic, the header, a dict section, a block or the
// trailer (every prefix of it).
func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC________________"),
		[]byte(binaryMagicV2), // magic, then nothing
		binary.AppendUvarint(append([]byte(binaryMagicV2), 1, 't', 0), 1<<40), // 2^40 clients
	}
	for _, c := range cases {
		if _, err := read(bytes.NewReader(c)); err == nil {
			t.Errorf("read(%q) should fail", c)
		}
	}
	full := encode(t, buildTrace("t", 100, 1), WriterOptions{BlockSize: 16}, true)
	for cut := 0; cut < len(full); cut++ {
		if _, err := read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("stream truncated at byte %d of %d should fail", cut, len(full))
		}
	}
}

// TestReadBinaryRejectsBadRecords: a stream whose records reference a
// client the header never declared, or a hint no dict section announced,
// fails validation.
func TestReadBinaryRejectsBadRecords(t *testing.T) {
	for name, mutate := range map[string]func(*Trace){
		"client": func(tr *Trace) { tr.Reqs[3].Client = 9 },
		"hint":   func(tr *Trace) { tr.Reqs[3].Hint = hint.ID(tr.Dict.Len() + 5) },
	} {
		tr := buildTrace("t", 50, 1)
		mutate(tr)
		_, err := read(bytes.NewReader(encode(t, tr, WriterOptions{}, false)))
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("undeclared %s: err = %v", name, err)
		}
	}
}

// TestReadTextErrors: text input — a record line or a header comment — is
// refused, as is a CLICTRC1 stream, and the error names what the stream
// starts with.
func TestReadTextErrors(t *testing.T) {
	for _, bad := range []string{
		"R 1 0 a=1\n",
		"# trace mini pagesize 4096\n",
		"CLICTRC1\x07DB2_C60",
	} {
		_, err := read(strings.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(bad[:min(len(bad), 8)])) {
			t.Errorf("read(%q): err = %v, want a refusal naming its first bytes", bad, err)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.trc")
	tr := buildTrace("SL", 1000, 4)
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, tr, got)
	if _, err := Load(filepath.Join(dir, "missing.trc")); err == nil {
		t.Error("loading a missing file should fail")
	}
}
