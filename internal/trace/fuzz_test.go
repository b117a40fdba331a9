package trace

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/hint"
)

// FuzzScanner feeds arbitrary bytes to the Scanner, the program's only
// reader of trace files, which come from outside the program. No input may
// panic, and the payload buffer may not outgrow a small multiple of the
// input: declared lengths commit no memory their bytes do not back. The seeds are Writer
// outputs (small blocks, dictionary interned lazily or up front) and
// truncations of them; every complete seed must scan to exactly the trace
// it was written from, and every truncation must fail.
func FuzzScanner(f *testing.F) {
	empty := New("empty", 512)
	keysOnly := buildTrace("keys", 0, 1)
	keysOnly.Dict.InternKey(hint.Make("late", "1").Key())
	want := map[string]*Trace{} // nil: a truncation, which must fail
	add := func(data []byte, tr *Trace) {
		if _, seen := want[string(data)]; !seen {
			want[string(data)] = tr
			f.Add(data)
		}
	}
	for _, c := range []struct {
		tr   *Trace
		opts WriterOptions
		lazy bool
	}{
		{streamTestTrace(), WriterOptions{BlockSize: 3}, true},
		{streamTestTrace(), WriterOptions{}, false},
		{buildTrace("fz", 60, 3), WriterOptions{BlockSize: 16, Workers: 2}, true},
		{empty, WriterOptions{}, false},
		{keysOnly, WriterOptions{BlockSize: 1}, true},
	} {
		full := encode(f, c.tr, c.opts, c.lazy)
		for cut := 0; cut < len(full); cut += 5 {
			add(full[:cut], nil)
		}
		add(full[:len(full)-1], nil)
		add(full, c.tr)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := NewScanner(bytes.NewReader(data))
		var got *Trace
		if err == nil {
			got, err = Collect(sc)
			if c := cap(sc.payload); c > 4*len(data)+64 {
				t.Fatalf("%d-byte input grew a %d-byte buffer", len(data), c)
			}
		}
		tr, seeded := want[string(data)]
		switch {
		case !seeded:
		case tr == nil:
			if err == nil {
				t.Fatalf("truncated stream (%d bytes) scanned cleanly", len(data))
			}
		case err != nil:
			t.Fatalf("seed %q: %v", tr.Name, err)
		default:
			tracesEqual(t, tr, got)
			if gk, wk := got.Dict.Keys(), tr.Dict.Keys(); !slices.Equal(gk, wk) {
				t.Fatalf("seed %q: dictionary %q, want %q", tr.Name, gk, wk)
			}
		}
	})
}
