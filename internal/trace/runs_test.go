package trace_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/hint"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestIteratorRuns pins the Next contract on all three iterators — an
// in-memory trace, a pipe fed by a generator, and a v2 stream with
// three-request blocks and dictionary sections between them: the runs
// concatenate to the reference sequence, every hint a run references is in
// the dictionary when Next returns it, and once the stream ends Next keeps
// returning nil. A truncated stream ends in nil with an error.
func TestIteratorRuns(t *testing.T) {
	spec, err := workload.ParseSpec("DB2_C60*2:6000@3")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := spec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	file := encodeLazy(t, ref)

	for name, open := range map[string]func() trace.Iterator{
		"memory": ref.Iter,
		"pipe": func() trace.Iterator {
			pw, pr := trace.NewPipe(ref.Name, ref.PageSize, ref.Clients, 500)
			go func() { pw.CloseWithError(spec.GenerateTo(pw)) }()
			return pr
		},
		"file": func() trace.Iterator {
			sc, err := trace.NewScanner(bytes.NewReader(file))
			if err != nil {
				t.Fatal(err)
			}
			return sc
		},
	} {
		it := open()
		got, runs, firstDict := drainRuns(t, name, it, ref.Len())
		if err := it.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got, ref.Reqs) {
			t.Errorf("%s: %d runs concatenate to %d requests, not the %d of the reference", name, runs, len(got), ref.Len())
		}
		if keys := it.HintDict().Keys(); !slices.Equal(keys, ref.Dict.Keys()) {
			t.Errorf("%s: dictionary of %d keys, want %d", name, len(keys), ref.Dict.Len())
		}
		if name != "memory" && firstDict == ref.Dict.Len() {
			t.Errorf("%s: the dictionary was complete at the first run, so no run tested its growth", name)
		}
		for i := 0; i < 3; i++ {
			if run := it.Next(); run != nil {
				t.Errorf("%s: Next after the end returned %d requests", name, len(run))
			}
		}
		it.Close()
	}

	for _, cut := range []int{len(file) / 2, len(file) - 3} {
		sc, err := trace.NewScanner(bytes.NewReader(file[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		drainRuns(t, "truncated file", sc, ref.Len())
		if sc.Err() == nil {
			t.Errorf("stream cut at %d of %d bytes ended without an error", cut, len(file))
		}
		if sc.Next() != nil {
			t.Errorf("stream cut at %d: Next after the error returned requests", cut)
		}
	}
}

// drainRuns reads it to the end, checking each run against the dictionary
// as Next returns it, and fails once more than max requests have come. It
// returns the requests, the number of runs and the dictionary's length at
// the first run.
func drainRuns(t *testing.T, name string, it trace.Iterator, max int) (got []trace.Request, runs, firstDict int) {
	t.Helper()
	for run := it.Next(); run != nil; run = it.Next() {
		if len(got)+len(run) > max {
			t.Fatalf("%s: more than the %d requests of the stream", name, max)
		}
		if len(run) == 0 {
			t.Fatalf("%s: run %d is empty, not nil", name, runs)
		}
		n := it.HintDict().Len()
		if runs == 0 {
			firstDict = n
		}
		for _, r := range run {
			if int(r.Hint) >= n {
				t.Fatalf("%s: run %d references hint %d with %d in the dictionary", name, runs, r.Hint, n)
			}
		}
		got = append(got, run...)
		runs++
	}
	return got, runs, firstDict
}

// encodeLazy writes tr as a v2 stream of three-request blocks, interning
// each hint key only when a request first needs it (in ID order, so IDs
// are kept), so dictionary sections fall between request blocks.
func encodeLazy(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, tr.Name, tr.PageSize, tr.Clients, trace.WriterOptions{BlockSize: 3})
	d := w.HintDict()
	for _, r := range tr.Reqs {
		for id := d.Len(); id <= int(r.Hint); id++ {
			d.InternKey(tr.Dict.Key(hint.ID(id)))
		}
		w.AppendReq(r)
	}
	for id := d.Len(); id < tr.Dict.Len(); id++ {
		d.InternKey(tr.Dict.Key(hint.ID(id)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
