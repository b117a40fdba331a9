// Package cluster scales the CLIC storage-server cache out to several
// nodes: a consistent-hash ring assigns every page to one owning node, and
// a routing client splits request batches across the owners.
//
// Placement divides the request stream, and with it the hint statistics:
// a node that owns one third of the pages sees roughly one third of each
// hint set's requests and re-references, so each node's shared learner
// (clicstats.Global) learns its priorities from a sample N times smaller
// than a single node's. The nodes learn alone: they share no statistics.
// Exchanging window counters between nodes was measured on all 36 cells of
// Figures 6–8 and moved the hit ratio by more than a point either way in
// only 12 of them, gaining in 7 and losing in 5, so it was removed.
//
// The in-process Harness boots an N-node cluster on loopback listeners and
// replays traces through the router deterministically (ReplaySerial, for
// golden tests and ablations); concurrent replays, for stress and
// benchmarks, drive ReplaySource at the harness's Nodes.
package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// DefaultVirtualNodes is the ring points placed per node when the caller
// does not choose: enough that a 3–8 node ring balances within a few
// percent, few enough that building the ring stays trivial.
const DefaultVirtualNodes = 64

// ringSalt decorrelates the ring's page hash from the in-node shard hash
// (core.Sharded.ShardFor runs the same mixer on the raw page number; the
// salt keeps ring position and shard index independent).
const ringSalt = 0x9e3779b97f4a7c15

// ringPoint is one virtual node: a position on the hash circle owned by a
// physical node.
type ringPoint struct {
	hash uint64
	node int
}

// Ring is a consistent-hash ring mapping pages to nodes. Placement is a
// pure function of the node names and the page number — ephemeral details
// like listen addresses never influence it, so a cluster booted twice (or
// described by two routers) places every page identically. A Ring is
// immutable once built and safe to share between goroutines.
type Ring struct {
	names  []string
	points []ringPoint

	// first is the bucket index over points, sorted by hash: the hash space
	// is cut into len(first) equal buckets by the top bits, and first[b] is
	// the index of the first point at or after bucket b's lower bound
	// (len(points) when there is none). A lookup starts there and walks
	// forward, on average less than one point.
	first []uint16
	shift uint // h >> shift is h's bucket
}

// bucketsPerPoint sizes the bucket index: the smallest power of two that is
// at least this many buckets per ring point. Chosen by measurement
// (BenchmarkRingOwner, 3 nodes × 64 points, best of 5: binary search 49 ns;
// 1 bucket per point 10.7 ns, 2 → 6.9, 4 → 5.8, 8 and 16 → 5.1 inside the
// same spread): at 4 the walk is already shorter than one point, and past
// it the index only grows.
const bucketsPerPoint = 4

// maxRingPoints is the most ring points the uint16 bucket index can
// address, len(points) itself included as the "none" value.
const maxRingPoints = math.MaxUint16

// NewRing builds a ring over the named nodes with vnodes virtual nodes
// each (0 selects DefaultVirtualNodes). Names must be non-empty and
// distinct; order does not affect placement.
func NewRing(names []string, vnodes int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	if vnodes > maxRingPoints/len(names) {
		return nil, fmt.Errorf("cluster: %d nodes × %d virtual nodes exceeds the ring's %d points", len(names), vnodes, maxRingPoints)
	}
	seen := make(map[string]bool, len(names))
	r := &Ring{
		names:  append([]string(nil), names...),
		points: make([]ringPoint, 0, len(names)*vnodes),
	}
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("cluster: node %d has an empty name", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", name)
		}
		seen[name] = true
		base := hashString(name)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: mix64(base + uint64(v)), node: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// A full-period hash collision across names is vanishingly rare but
		// must still order deterministically.
		return r.names[a.node] < r.names[b.node]
	})

	nbits := bits.Len(uint(bucketsPerPoint*len(r.points) - 1))
	r.shift = uint(64 - nbits)
	r.first = make([]uint16, 1<<nbits)
	i := 0
	for b := range r.first {
		for i < len(r.points) && r.points[i].hash < uint64(b)<<r.shift {
			i++
		}
		r.first[b] = uint16(i)
	}
	return r, nil
}

// Nodes returns the node count.
func (r *Ring) Nodes() int { return len(r.names) }

// Name returns the identity of node i.
func (r *Ring) Name(i int) string { return r.names[i] }

// Owner returns the node owning a page: the first ring point at or after
// the page's position, wrapping at the top of the circle. Like the shard
// hash, the page number is mixed first so sequential page ranges spread
// instead of striping.
func (r *Ring) Owner(page uint64) int {
	return r.ownerOfHash(mix64(page ^ ringSalt))
}

// ownerOfHash is Owner from ring position h on.
func (r *Ring) ownerOfHash(h uint64) int {
	pts := r.points
	i := int(r.first[h>>r.shift])
	for i < len(pts) && pts[i].hash < h {
		i++
	}
	if i == len(pts) {
		i = 0
	}
	return pts[i].node
}

// hashString is FNV-1a, the seed for a node's virtual-node positions.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the SplitMix64 finalizer (same mixer core.Sharded uses for
// shard placement, decorrelated here via ringSalt and the FNV seed).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
