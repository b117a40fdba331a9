package trace

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
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

// read is the one way a serialised trace comes back: the sniffing Scanner
// drained by Collect, exactly what Load does to a file.
func read(r io.Reader) (*Trace, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	return Collect(sc)
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := buildTrace("DB2_C60", 2000, 42)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, tr, got)
}

// TestBinaryRoundTripQuick property-tests the binary codec over random
// traces, including multi-client ones and large page numbers.
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
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := read(&buf)
		if err != nil {
			return false
		}
		if got.Len() != tr.Len() {
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

// TestReadRejectsGarbage: input that is neither magic-prefixed binary nor
// well-formed text is refused, as is a binary stream cut anywhere — inside
// the header (every prefix of it) or inside the records. (An empty stream
// is a valid empty text trace: the sniffer has nothing to tell it apart.)
func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		[]byte("short"),
		[]byte("NOTMAGIC________________"),
		[]byte(binaryMagic), // magic, then nothing
	}
	for _, c := range cases {
		if _, err := read(bytes.NewReader(c)); err == nil {
			t.Errorf("read(%q) should fail", c)
		}
	}
	tr := buildTrace("t", 100, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := len(binaryMagic); cut < len(full); cut += 7 {
		if _, err := read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("stream truncated at byte %d of %d should fail", cut, len(full))
		}
	}
}

// TestReadBinaryRejectsBadRecords: a v1 stream whose records reference a
// client or hint the header never declared fails validation.
func TestReadBinaryRejectsBadRecords(t *testing.T) {
	for name, mutate := range map[string]func(*Trace){
		"client": func(tr *Trace) { tr.Reqs[3].Client = 9 },
		"hint":   func(tr *Trace) { tr.Reqs[3].Hint = hint.ID(tr.Dict.Len() + 5) },
	} {
		tr := buildTrace("t", 50, 1)
		mutate(tr)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		if _, err := read(&buf); err == nil {
			t.Errorf("undeclared %s accepted", name)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := buildTrace("TXT", 500, 9)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, tr, got)
}

func TestTextFormatReadable(t *testing.T) {
	tr := New("mini", 4096)
	tr.Append(7, Read, tr.Dict.Intern(hint.Make("reqtype", "read")))
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# trace mini pagesize 4096") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "R 7 0 reqtype=read") {
		t.Errorf("missing record: %q", out)
	}
}

func TestReadTextErrors(t *testing.T) {
	for _, bad := range []string{
		"X 1 0 a=1\n",       // bad op
		"R notanum 0 a=1\n", // bad page
		"R 1 banana a=1\n",  // bad client
		"R\n",               // too few fields
	} {
		if _, err := read(strings.NewReader(bad)); err == nil {
			t.Errorf("read(%q) should fail", bad)
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
