package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one timed call into a layer, recorded by the harness around the
// call. Times are nanoseconds since the pass began. Spans of one batch
// share an ID ("client:seq"); Parent is the index of the enclosing span in
// the same file (-1 for the pass root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	ID     string `json:"id"`
}

// rawSpan is the in-memory form: appending one is a few stores, so
// recording stays far below the cost of the calls it brackets.
type rawSpan struct {
	name       uint8
	start, end int64
	parent     int32 // index within the same recorder, -1 for the pass root
	seq        int32
}

// spanNames is the closed set of span names; rawSpan.name indexes it.
var spanNames = []string{
	spCoreAccess:      "core.access",
	spEngineBatch:     "engine.batch",
	spCoreAccessBatch: "core.access_batch",
	spConnect:         "netclient.connect",
	spRoundtrip:       "netclient.roundtrip",
	spSubmit:          "netclient.submit",
	spWait:            "netclient.wait",
	spDrain:           "netclient.drain",
	spRouterConnect:   "cluster.connect",
	spRouterRoundtrip: "cluster.roundtrip",
	spRouterSubmit:    "cluster.router_submit",
}

const (
	spCoreAccess uint8 = iota
	spEngineBatch
	spCoreAccessBatch
	spConnect
	spRoundtrip
	spSubmit
	spWait
	spDrain
	spRouterConnect
	spRouterRoundtrip
	spRouterSubmit
)

// recorder collects one client stream's spans. Each driver goroutine owns
// one, so recording takes no lock. A nil recorder records nothing: the
// untraced passes run the same driver code with tracing off.
type recorder struct {
	client int
	spans  []rawSpan
}

// add appends a span and returns its index (-1 on a nil recorder).
func (r *recorder) add(name uint8, start, end int64, parent int32, seq int) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, rawSpan{name: name, start: start, end: end, parent: parent, seq: int32(seq)})
	return int32(len(r.spans) - 1)
}

// setEnd closes a span whose end was unknown when it was added.
func (r *recorder) setEnd(i int32, end int64) {
	if r != nil && i >= 0 {
		r.spans[i].end = end
	}
}

// mergeSpans lays the pass root and every client's spans out in one slice,
// rewriting recorder-local parent indices into indices of that slice.
func mergeSpans(workload string, passNs int64, recs []*recorder) []span {
	out := []span{{Name: "pass:" + workload, Start: 0, End: passNs, Parent: -1, ID: "pass"}}
	for _, r := range recs {
		if r == nil {
			continue
		}
		base := len(out)
		for _, s := range r.spans {
			parent := 0
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			out = append(out, span{
				Name:   spanNames[s.name],
				Start:  s.start,
				End:    s.end,
				Parent: parent,
				ID:     fmt.Sprintf("%d:%d", r.client, s.seq),
			})
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its child spans cover.
// Children may overlap each other (pipelined batches), so the covered part
// is the union of the child intervals clipped to the parent.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		self[s.Name] += (s.End - s.Start) - covered(children[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := lo // everything before end is already counted
	for _, v := range iv {
		a, b := max(v[0], end), min(v[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// writeSpans writes one span per line as JSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
