package cluster

import (
	"fmt"
	"testing"
)

// TestRingPlacementPure checks that placement depends only on the node
// names, not their listing order: every page must map to the same name
// through differently-ordered rings.
func TestRingPlacementPure(t *testing.T) {
	a, err := NewRing([]string{"node0", "node1", "node2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"node2", "node0", "node1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for page := uint64(0); page < 10000; page++ {
		if got, want := b.Name(b.Owner(page)), a.Name(a.Owner(page)); got != want {
			t.Fatalf("page %d: reordered ring places on %s, original on %s", page, got, want)
		}
	}
}

// TestRingBalance checks that placement hands every node its fair share of
// a sequential page range, the split StartHarness gives capacity: no node
// owns more than 1.02/N of the pages.
func TestRingBalance(t *testing.T) {
	const pages = 1 << 20
	for _, nodes := range []int{2, 3, 4, 8} {
		names := make([]string, nodes)
		for i := range names {
			names[i] = fmt.Sprintf("node%d", i)
		}
		r, err := NewRing(names, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, nodes)
		for page := uint64(0); page < pages; page++ {
			counts[r.Owner(page)]++
		}
		for i, c := range counts {
			if share := float64(c) * float64(nodes) / pages; share > 1.02 {
				t.Errorf("%d nodes: node %d owns %.3f× its fair share (counts %v)", nodes, i, share, counts)
			}
		}
	}
}

// TestRingSingleNode checks the degenerate ring.
func TestRingSingleNode(t *testing.T) {
	r, err := NewRing([]string{"only"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for page := uint64(0); page < 1000; page++ {
		if r.Owner(page) != 0 {
			t.Fatalf("page %d not owned by the only node", page)
		}
	}
}

// TestRingRejects checks construction errors.
func TestRingRejects(t *testing.T) {
	for _, names := range [][]string{nil, {}, {""}, {"a", "a"}, {"a", "", "b"}} {
		if _, err := NewRing(names, 0); err == nil {
			t.Errorf("NewRing(%q) succeeded, want error", names)
		}
	}
}

func BenchmarkRingOwner(b *testing.B) {
	r, err := NewRing([]string{"node0", "node1", "node2"}, 0)
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for i := 0; i < b.N; i++ {
		n += r.Owner(uint64(i) * 7919)
	}
	ringSink = n
}

var ringSink int
