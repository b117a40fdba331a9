package trace

import "testing"

// TestStreamNoiseMatchesWithNoise pins WithNoise to the chunked parallel
// injection it replaced (refWithNoise), for zero and nonzero noise types,
// on a trace spanning several of the reference's chunks.
func TestStreamNoiseMatchesWithNoise(t *testing.T) {
	tr := buildTrace("NOISE", 2*refNoiseChunk+4321, 21)
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

		// Dictionary IDs must match exactly, not just keys.
		for i, r := range want.Reqs {
			if got.Reqs[i].Hint != r.Hint {
				t.Fatalf("types=%d request %d: hint IDs diverge", types, i)
			}
		}
		if wk, gk := want.Dict.Keys(), got.Dict.Keys(); len(wk) != len(gk) {
			t.Fatalf("types=%d: dictionary sizes %d, %d", types, len(wk), len(gk))
		}
	}
}
