package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

var updateVerdicts = flag.Bool("update-verdicts", false, "rewrite testdata/verdicts.golden from the current implementation")

const verdictGolden = "testdata/verdicts.golden"

// verdictCase is one cell of the golden matrix: {3 generated presets, one
// synthetic stream} × {exact, TopK} × {default outqueue, NoOutqueue,
// Noutq: 1} × {capacity 0, tiny, normal}.
type verdictCase struct {
	name string
	spec string
	cfg  Config
}

func verdictCases() []verdictCase {
	specs := []string{"DB2_C60*2:100000@7", "DB2_H80:100000", "MY_H65:100000", syntheticSpec}
	topks := []int{0, 4}
	noutqs := []struct {
		name string
		n    int
	}{{"outq=default", 0}, {"outq=none", NoOutqueue}, {"outq=1", 1}}
	caps := []int{0, 64, 2000}
	var out []verdictCase
	for _, spec := range specs {
		for _, k := range topks {
			for _, q := range noutqs {
				for _, capacity := range caps {
					out = append(out, verdictCase{
						name: fmt.Sprintf("%s/topk=%d/%s/cap=%d", spec, k, q.name, capacity),
						spec: spec,
						cfg:  Config{Capacity: capacity, Noutq: q.n, Window: 5000, TopK: k},
					})
				}
			}
		}
	}
	return out
}

// syntheticSpec names shardedTrace's random stream over a small page and
// hint universe: half the requests go to 200 hot pages, so immediate
// re-requests, full one-entry outqueues and admissions of a page whose own
// record is the one displaced all occur — corners the generated presets
// rarely reach.
const syntheticSpec = "synthetic:100000"

func verdictRequests(t *testing.T, name string) []trace.Request {
	if name == syntheticSpec {
		return shardedTrace(100000, 3)
	}
	spec, err := workload.ParseSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr.Reqs
}

// verdictEnd is the end state a golden line records after its digest.
type verdictEnd struct {
	len, outq int
	evictions uint64
	windows   int
}

// verdictLines renders every case's golden line: an FNV-1a digest of the
// per-request hit/miss stream (one byte per request, so a single flipped
// verdict anywhere changes it) plus the end-state counters. replay builds
// the cache under test from cfg, runs reqs through it reporting each
// verdict in request order, and returns the end state.
func verdictLines(t *testing.T, replay func(cfg Config, reqs []trace.Request, verdict func(hit bool)) verdictEnd) []string {
	traces := map[string][]trace.Request{}
	var lines []string
	for _, vc := range verdictCases() {
		reqs, ok := traces[vc.spec]
		if !ok {
			reqs = verdictRequests(t, vc.spec)
			traces[vc.spec] = reqs
		}
		h := fnv.New64a()
		buf := make([]byte, 0, 4096)
		hits := 0
		end := replay(vc.cfg, reqs, func(hit bool) {
			b := byte(0)
			if hit {
				b = 1
				hits++
			}
			buf = append(buf, b)
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
		})
		h.Write(buf)
		lines = append(lines, fmt.Sprintf("%s digest=%016x hits=%d len=%d outq=%d evictions=%d windows=%d",
			vc.name, h.Sum64(), hits, end.len, end.outq, end.evictions, end.windows))
	}
	return lines
}

// checkVerdictGolden compares rendered lines with the golden file.
func checkVerdictGolden(t *testing.T, lines []string) {
	t.Helper()
	golden, err := os.ReadFile(verdictGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d lines, want one per case: %d", verdictGolden, len(want), len(lines))
	}
	for i, line := range lines {
		if line != want[i] {
			t.Errorf("verdicts changed:\n got  %s\n want %s", line, want[i])
		}
	}
}

// TestVerdictDigests pins the cache's behaviour request by request: the
// golden file was written by the two-map, pointer-linked implementation
// that preceded the page table + slab, and any record-store rewrite must
// reproduce every hit/miss verdict exactly — totals alone would let
// compensating errors through.
func TestVerdictDigests(t *testing.T) {
	lines := verdictLines(t, func(cfg Config, reqs []trace.Request, verdict func(bool)) verdictEnd {
		c := New(cfg)
		for _, r := range reqs {
			verdict(c.Access(r))
		}
		return verdictEnd{c.Len(), c.OutqueueLen(), c.Evictions(), c.Windows()}
	})
	if *updateVerdicts {
		if err := os.WriteFile(verdictGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkVerdictGolden(t, lines)
}

// TestVerdictDigestsThroughFrames replays the same cases through a
// one-shard front, in frames of 512 (32 whole warm groups) after an
// opening frame of 5 — every trace is 100000 requests, a multiple of the
// group size, so without the offset no group would ever be ragged; with it
// the first and the last frame both end in a short group. The golden file
// is the one the pre-slab implementation wrote through plain Access: the
// combining hand-off and the warm pass may change no verdict and no end
// state.
func TestVerdictDigestsThroughFrames(t *testing.T) {
	checkVerdictGolden(t, verdictLines(t, func(cfg Config, reqs []trace.Request, verdict func(bool)) verdictEnd {
		s := NewSharded(cfg, 1)
		defer s.Close()
		p := s.NewProducer()
		defer p.Close()
		hits := make([]bool, DefaultAccessBatch)
		for n := 5; len(reqs) > 0; n = len(hits) {
			n = min(n, len(reqs))
			p.AccessBatch(reqs[:n], hits)
			for _, hit := range hits[:n] {
				verdict(hit)
			}
			reqs = reqs[n:]
		}
		st := s.Stats()
		return verdictEnd{st.Len, st.OutqueueLen, st.Evictions, st.Windows}
	}))
}

// TestFrameCountsMatchNaiveRecount replays the golden cases through
// fronts — one shard (the whole batch is one frame) and three (routed
// frames), alternating — and recounts every batch the slow way from the
// requests and the verdicts. processFrame counts by addition and takes
// writes as the remainder, which is right only if a hit is never reported
// for a write; that, reads + writes = requests and read hits = Σ verdicts
// are pinned here batch by batch.
func TestFrameCountsMatchNaiveRecount(t *testing.T) {
	traces := map[string][]trace.Request{}
	hits := make([]bool, DefaultAccessBatch)
	for k, vc := range verdictCases() {
		reqs, ok := traces[vc.spec]
		if !ok {
			reqs = verdictRequests(t, vc.spec)
			traces[vc.spec] = reqs
		}
		s := NewSharded(vc.cfg, 1+2*(k%2))
		p := s.NewProducer()
		var reads, readHits, writes uint64
		for n := 5; len(reqs) > 0; n = len(hits) {
			n = min(n, len(reqs))
			p.AccessBatch(reqs[:n], hits)
			for i, r := range reqs[:n] {
				switch {
				case r.Op == trace.Read:
					reads++
					if hits[i] {
						readHits++
					}
				case hits[i]:
					t.Fatalf("%s: write of page %d reported a hit", vc.name, r.Page)
				default:
					writes++
				}
			}
			if st := s.Stats(); st.Reads != reads || st.ReadHits != readHits || st.Writes != writes || st.Requests != reads+writes {
				t.Fatalf("%s: Stats = %d reads, %d read hits, %d writes, %d requests; recount %d, %d, %d",
					vc.name, st.Reads, st.ReadHits, st.Writes, st.Requests, reads, readHits, writes)
			}
			reqs = reqs[n:]
		}
		if writes == 0 || (readHits == 0 && vc.cfg.Capacity > 0) {
			t.Errorf("%s: vacuous: %d writes, %d read hits", vc.name, writes, readHits)
		}
		p.Close()
		s.Close()
	}
}
