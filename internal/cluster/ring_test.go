package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// TestRingBalance checks that virtual nodes spread a sequential page range
// over the nodes with no grossly starved or overloaded member.
func TestRingBalance(t *testing.T) {
	const nodes, pages = 3, 100000
	r, err := NewRing([]string{"node0", "node1", "node2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, nodes)
	for page := uint64(0); page < pages; page++ {
		counts[r.Owner(page)]++
	}
	for i, c := range counts {
		share := float64(c) / pages
		if share < 0.15 || share > 0.55 {
			t.Errorf("node %d owns %.1f%% of pages (counts %v)", i, 100*share, counts)
		}
	}
}

// TestRingStability checks the consistent-hashing property: removing one
// node moves only that node's pages; every page owned by a survivor keeps
// its owner.
func TestRingStability(t *testing.T) {
	full, err := NewRing([]string{"node0", "node1", "node2", "node3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"node0", "node1", "node3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for page := uint64(0); page < 50000; page++ {
		before := full.Name(full.Owner(page))
		after := reduced.Name(reduced.Owner(page))
		if before == "node2" {
			moved++
			continue // this page had to move somewhere
		}
		if after != before {
			t.Fatalf("page %d moved %s -> %s though its owner survived", page, before, after)
		}
	}
	if moved == 0 {
		t.Error("removed node owned no pages; the stability check is vacuous")
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
	// The bucket index addresses points with 16 bits: a ring that would
	// need more is refused, not truncated.
	if _, err := NewRing([]string{"a", "b"}, maxRingPoints/2); err != nil {
		t.Errorf("largest ring refused: %v", err)
	}
	if _, err := NewRing([]string{"a", "b"}, maxRingPoints/2+1); err == nil {
		t.Error("NewRing accepted more points than its index can address")
	}
}

// searchOwner is Owner as it was before the bucket index: a binary search
// for the first point at or after h, wrapping. The reference
// TestRingOwnerMatchesSearch holds the index to.
func searchOwner(r *Ring, h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// TestRingOwnerMatchesSearch checks the bucket index against the binary
// search it replaced, on random pages and on every hash where the two could
// part: each point's own hash and its neighbours, and the ends of the
// circle.
func TestRingOwnerMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for nodes := 1; nodes <= 16; nodes++ {
		names := make([]string, nodes)
		for i := range names {
			names[i] = fmt.Sprintf("node%d", i)
		}
		for _, vnodes := range []int{1, 64, 200} {
			r, err := NewRing(names, vnodes)
			if err != nil {
				t.Fatal(err)
			}
			check := func(h uint64) {
				t.Helper()
				if got, want := r.ownerOfHash(h), searchOwner(r, h); got != want {
					t.Fatalf("%d nodes × %d: hash %#x owned by %d, binary search says %d", nodes, vnodes, h, got, want)
				}
			}
			for i := 0; i < 100000; i++ {
				page := rng.Uint64()
				if got, want := r.Owner(page), searchOwner(r, mix64(page^ringSalt)); got != want {
					t.Fatalf("%d nodes × %d: page %d owned by %d, binary search says %d", nodes, vnodes, page, got, want)
				}
			}
			for _, pt := range r.points {
				check(pt.hash)
				check(pt.hash - 1)
				check(pt.hash + 1)
			}
			check(0)
			check(math.MaxUint64)
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
