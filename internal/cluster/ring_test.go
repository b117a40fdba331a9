package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/core"
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

// ringNames returns n node names listed in reverse of their sorted order,
// so that a node's index is not its rank.
func ringNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node%02d", n-1-i)
	}
	return names
}

// strides are the page sets the placement tests walk: 96,000 pages of a
// dense range and of strides 2, 8, 64, 987 and 4,096, core's
// TestShardedStableMapping's sets.
var strides = []uint64{1, 2, 8, 64, 987, 4096}

const stridePages = 96_000

// TestRingBalance checks that placement hands every node its even share
// of each stride's pages, the split StartHarness gives capacity, by
// core's rule for shards: within 0.1 % of it, 2 % at stride 987 (whose
// runs of consecutive pages share a node, see Owner).
func TestRingBalance(t *testing.T) {
	for _, stride := range strides {
		tol := 0.001
		if stride == 987 {
			tol = 0.02
		}
		for _, nodes := range []int{2, 3, 4, 8} {
			r, err := NewRing(ringNames(nodes), 0)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, nodes)
			for k := uint64(0); k < stridePages; k++ {
				counts[r.Owner(k*stride)]++
			}
			for i, c := range counts {
				if off := math.Abs(float64(c*nodes)/stridePages - 1); off > tol {
					t.Errorf("stride %d, %d nodes: node %d owns %d pages, %.2f %% off the even %d",
						stride, nodes, i, c, 100*off, stridePages/nodes)
				}
			}
		}
	}
}

// TestRingNesting checks that N nodes of S shards place pages as one front
// of N·S shards: on every stride's pages, the owner's rank among the
// sorted names times S, plus the shard an S-shard node gives the page's
// local number, is the page's shard in the N·S-shard front. Since a
// node's shard tables home pages by the bits below ShardFor's, they are
// then the big front's tables.
func TestRingNesting(t *testing.T) {
	cfg := core.Config{Capacity: 64}
	for _, nodes := range []int{1, 2, 3, 4, 8} {
		names := ringNames(nodes)
		r, err := NewRing(names, 0)
		if err != nil {
			t.Fatal(err)
		}
		sorted := slices.Sorted(slices.Values(names))
		rank := make([]int, nodes)
		for i, name := range names {
			rank[i] = slices.Index(sorted, name)
		}
		for _, shards := range []int{1, 4} {
			node, front := core.NewSharded(cfg, shards), core.NewSharded(cfg, nodes*shards)
			for _, stride := range strides {
				for k := uint64(0); k < stridePages; k++ {
					p := k * stride
					n := r.Owner(p)
					got, want := rank[n]*shards+node.ShardFor(r.Local(p)), front.ShardFor(p)
					if got != want {
						t.Fatalf("%d nodes × %d shards, stride %d: page %d goes to node %s (rank %d), shard %d there, "+
							"slice %d; a %d-shard front puts it in shard %d", nodes, shards, stride, p, names[n], rank[n],
							node.ShardFor(r.Local(p)), got, nodes*shards, want)
					}
				}
			}
		}
	}
}

// TestRingLocalInjective checks the one place Local is not one-to-one:
// for an even N, pages k·2⁶⁴/2ᵃ apart (2ᵃ the largest power of two
// dividing N, 0 < k < 2ᵃ) share a local number, and must then have
// different owners, or one node would take two pages for one.
func TestRingLocalInjective(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 0))
	for _, nodes := range []int{2, 4, 6, 8} {
		r, err := NewRing(ringNames(nodes), 0)
		if err != nil {
			t.Fatal(err)
		}
		a := bits.TrailingZeros(uint(nodes))
		for i := 0; i < 20_000; i++ {
			p := uint64(i)
			if i%2 == 1 {
				p = rng.Uint64()
			}
			for k := uint64(1); k < 1<<a; k++ {
				q := p + k<<(64-a)
				if r.Local(q) != r.Local(p) {
					t.Fatalf("%d nodes: pages %#x and %#x have local numbers %#x and %#x, want one", nodes, p, q, r.Local(p), r.Local(q))
				}
				if r.Owner(q) == r.Owner(p) {
					t.Fatalf("%d nodes: pages %#x and %#x share local number %#x and node %d", nodes, p, q, r.Local(p), r.Owner(p))
				}
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
		if r.Local(page) != page {
			t.Fatalf("page %d goes to the only node as %d", page, r.Local(page))
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
