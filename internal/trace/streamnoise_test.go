package trace

import (
	"bytes"
	"testing"

	"repro/internal/hint"
)

// TestStreamNoiseMatchesWithNoise pins the streaming transform to the
// chunked parallel injection it replaced (refWithNoise): WithNoise (the
// transform over an in-memory iterator) and StreamNoise over a v2 stream
// whose dictionary arrives in sections must both equal the reference, for
// zero and nonzero noise types, on a trace spanning several of the
// reference's chunks.
func TestStreamNoiseMatchesWithNoise(t *testing.T) {
	tr := buildTrace("NOISE", 2*refNoiseChunk+4321, 21)
	stream := encode(t, tr, WriterOptions{BlockSize: 4096}, true)
	for _, types := range []int{0, 2, 5} {
		cfg := DefaultNoise(types, 77)
		want, err := refWithNoise(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}

		got, err := WithNoise(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tracesEqual(t, want, got)

		sc, err := NewScanner(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		got2 := New(want.Name, tr.PageSize)
		got2.Clients = append([]string(nil), tr.Clients...)
		if err := StreamNoise(sc, got2, cfg); err != nil {
			t.Fatal(err)
		}
		tracesEqual(t, want, got2)

		// Dictionary IDs must match exactly, not just keys.
		for i, r := range want.Reqs {
			if got.Reqs[i].Hint != r.Hint || got2.Reqs[i].Hint != r.Hint {
				t.Fatalf("types=%d request %d: hint IDs diverge", types, i)
			}
		}
		if wk, gk := want.Dict.Keys(), got.Dict.Keys(); len(wk) != len(gk) || len(wk) != got2.Dict.Len() {
			t.Fatalf("types=%d: dictionary sizes %d, %d, %d", types, len(wk), len(gk), got2.Dict.Len())
		}
	}
}

// TestStreamNoiseThroughWriter checks the full scanner→noise→v2-writer pipe
// round-trips to the reference injection.
func TestStreamNoiseThroughWriter(t *testing.T) {
	tr := buildTrace("PIPE_NOISE", 30000, 4)
	cfg := DefaultNoise(3, 9)
	want, err := refWithNoise(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var v2out bytes.Buffer
	sc, err := NewScanner(bytes.NewReader(encode(t, tr, WriterOptions{}, false)))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(&v2out, want.Name, tr.PageSize, tr.Clients, WriterOptions{BlockSize: 2048})
	if err := StreamNoise(sc, w, cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sc2, err := NewScanner(bytes.NewReader(v2out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(sc2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.Dict.Len() != want.Dict.Len() {
		t.Fatalf("len %d/%d, dict %d/%d", got.Len(), want.Len(), got.Dict.Len(), want.Dict.Len())
	}
	for i := range want.Reqs {
		if got.Reqs[i] != want.Reqs[i] {
			t.Fatalf("request %d: %+v vs %+v", i, got.Reqs[i], want.Reqs[i])
		}
	}
	for id := 0; id < want.Dict.Len(); id++ {
		if got.Dict.Key(hint.ID(id)) != want.Dict.Key(hint.ID(id)) {
			t.Fatalf("hint %d: %q vs %q", id, got.Dict.Key(hint.ID(id)), want.Dict.Key(hint.ID(id)))
		}
	}
}
