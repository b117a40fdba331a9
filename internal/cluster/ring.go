// Package cluster scales the CLIC storage-server cache out to several
// nodes: a placement hash assigns every page to one owning node, and a
// routing client splits request batches across the owners.
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
// The in-process Harness boots an N-node cluster on loopback listeners;
// every replay, golden tests and ablations included, drives ReplaySource
// at the harness's Nodes. A single-client replay is deterministic at any
// pipeline depth and batch size: a node shares no state with its peers and
// sees its sub-stream of the trace in trace order.
package cluster

import (
	"fmt"
	"math/bits"
	"sort"
)

// ringSalt is XORed into the page number before mixing. core.Sharded's
// ShardFor no longer mixes (it takes the page table's own multiplicative
// hash), so the salt is kept only so that placement stays what it was.
const ringSalt = 0x9e3779b97f4a7c15

// Ring maps pages to nodes, each node owning 1/N of the hash space, as
// it gets 1/N of the capacity. Placement is a pure function of the set of
// node names and the page number, never of their order or of listen
// addresses, so a cluster booted twice (or described by two routers)
// places every page identically. Membership never changes, so placement
// is not consistent hashing. A Ring is immutable and safe to share.
type Ring struct {
	names    []string
	bySorted []int // caller's index of each name, in sorted name order
}

// NewRing builds the placement over the named nodes. Names must be
// non-empty and distinct. vnodes is ignored: bench/layers.go passes it.
func NewRing(names []string, vnodes int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	seen := make(map[string]bool, len(names))
	r := &Ring{
		names:    append([]string(nil), names...),
		bySorted: make([]int, len(names)),
	}
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("cluster: node %d has an empty name", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", name)
		}
		seen[name] = true
		r.bySorted[i] = i
	}
	sort.Slice(r.bySorted, func(a, b int) bool { return names[r.bySorted[a]] < names[r.bySorted[b]] })
	return r, nil
}

// Nodes returns the node count.
func (r *Ring) Nodes() int { return len(r.names) }

// Name returns the identity of node i.
func (r *Ring) Name(i int) string { return r.names[i] }

// Owner returns the node owning a page: the high word of the mixed page
// number times N (the multiply-shift core's probe table uses) is a rank
// among the sorted names. Mixing first spreads sequential page ranges.
func (r *Ring) Owner(page uint64) int {
	hi, _ := bits.Mul64(mix64(page^ringSalt), uint64(len(r.bySorted)))
	return r.bySorted[hi]
}

// mix64 is the SplitMix64 finalizer, a cheap full-avalanche mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
