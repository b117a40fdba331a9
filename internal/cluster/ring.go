// Package cluster scales the CLIC storage-server cache out to several
// nodes: the page table's own hash assigns every page to one owning node,
// and a routing client splits request batches across the owners.
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

// phi is core's Fibonacci-hashing multiplier: its table homes page·phi.
const phi = 0x9E3779B97F4A7C15

// Ring maps pages to nodes, each node owning 1/N of the hash space, as it
// gets 1/N of the capacity. Placement is a pure function of the set of node
// names and the page number, never of their order or of listen addresses, so
// a cluster booted twice (or described by two routers) places every page
// identically. Membership never changes, so placement is not consistent
// hashing. A Ring is immutable and safe to share. The nodes split the hash
// space as the shards of one N·S-shard front do (core.Sharded.ShardFor) and
// get their pages as Local numbers, so node r's shard k is that front's
// shard r·S+k, table layout included. A node is reached through a router: it
// holds page·N, not the client's page.
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

// Owner returns the node owning a page: the integer part of page·phi
// mod 2⁶⁴ times N, over 2⁶⁴ (ShardFor's multiply), is a rank among the
// sorted names. ShardFor's weak stride is the ring's too: runs of about
// 2,200/N consecutive pages of stride 987 share a node.
func (r *Ring) Owner(page uint64) int {
	hi, _ := bits.Mul64(page*phi, uint64(len(r.bySorted)))
	return r.bySorted[hi]
}

// Local returns page·N mod 2⁶⁴, the page number the owner is sent. Pages
// that share one (an even N's, k·2⁶⁴/2ᵃ apart) never share an owner.
func (r *Ring) Local(page uint64) uint64 { return page * uint64(len(r.names)) }
