package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "pass:x", Start: 0, End: 100, Parent: -1},
		// One round trip whose submit holds a wait.
		{Name: "roundtrip", Start: 10, End: 60, Parent: 0},
		{Name: "submit", Start: 10, End: 30, Parent: 1},
		{Name: "wait", Start: 10, End: 25, Parent: 2},
		// A second round trip overlapping the first, as pipelined batches do.
		{Name: "roundtrip", Start: 40, End: 90, Parent: 0},
		{Name: "submit", Start: 40, End: 45, Parent: 4},
		// A child that sticks out of its parent counts only where it overlaps.
		{Name: "late", Start: 85, End: 120, Parent: 4},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"pass:x":    100 - 80,              // children cover [10,90]
		"roundtrip": (50 - 20) + (50 - 10), // minus submit; minus submit and the clipped late child
		"submit":    (20 - 15) + 5,
		"wait":      15,
		"late":      35,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	for _, tc := range []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}, {6, 8}}, 0, 10, 4},
		{[][2]int64{{6, 8}, {2, 7}}, 0, 10, 6},
		{[][2]int64{{0, 10}, {3, 4}}, 0, 10, 10},
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5},
		{[][2]int64{{12, 15}}, 0, 10, 0},
	} {
		if got := covered(tc.iv, tc.lo, tc.hi); got != tc.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", tc.iv, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestMergeSpansRewritesParents(t *testing.T) {
	a := &recorder{client: 0}
	rt := a.add(spRoundtrip, 1, 9, -1, 0)
	a.add(spSubmit, 1, 3, rt, 0)
	b := &recorder{client: 1}
	eb := b.add(spEngineBatch, 2, 8, -1, 5)
	b.add(spCoreAccessBatch, 2, 7, eb, 5)
	var none *recorder
	if none.add(spSubmit, 0, 1, -1, 0) != -1 {
		t.Fatal("a nil recorder must record nothing")
	}
	none.setEnd(-1, 5)

	got := mergeSpans("w", 10, []*recorder{a, nil, b})
	want := []span{
		{Name: "pass:w", Start: 0, End: 10, Parent: -1, ID: "pass"},
		{Name: "netclient.roundtrip", Start: 1, End: 9, Parent: 0, ID: "0:0"},
		{Name: "netclient.submit", Start: 1, End: 3, Parent: 1, ID: "0:0"},
		{Name: "engine.batch", Start: 2, End: 8, Parent: 0, ID: "1:5"},
		{Name: "core.access_batch", Start: 2, End: 7, Parent: 3, ID: "1:5"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mergeSpans =\n%+v\nwant\n%+v", got, want)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, got); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []span
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		back = append(back, s)
	}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("span file round trip =\n%+v\nwant\n%+v", back, want)
	}
}
