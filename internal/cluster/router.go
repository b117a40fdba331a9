package cluster

import (
	"fmt"
	"time"

	"repro/internal/netclient"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Node identifies one cluster member to a router: a stable name (the ring
// placement key — must match across every router and every boot of the
// cluster) and the address its page-request listener currently answers on.
type Node struct {
	Name string
	Addr string
}

// Router is one logical client connection to a whole cluster: it holds one
// netclient.Conn per node and splits every request batch by ring owner,
// sending the sub-batches down per-node pipelines and reassembling the
// per-request results in submission order — callers see exactly the Pipeline contract
// of a single connection, just answered by N caches. Like netclient.Conn it
// is not safe for concurrent use; the replay drivers give each goroutine
// its own Router.
type Router struct {
	ring  *Ring
	conns []*netclient.Conn
	acks  []wire.HelloAck
}

// DialRouter connects to every node of a cluster (vnodes is ignored, as in
// NewRing). Call Hello next, then Pipeline.
func DialRouter(nodes []Node, vnodes int) (*Router, error) {
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name
	}
	ring, err := NewRing(names, vnodes)
	if err != nil {
		return nil, err
	}
	r := &Router{
		ring:  ring,
		conns: make([]*netclient.Conn, len(nodes)),
		acks:  make([]wire.HelloAck, len(nodes)),
	}
	for i, n := range nodes {
		conn, err := netclient.Dial(n.Addr)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("cluster: dialing %s (%s): %w", n.Name, n.Addr, err)
		}
		r.conns[i] = conn
	}
	return r, nil
}

// Hello handshakes with every node, announcing the same client name and
// hint vocabulary everywhere (requests then reference keys by announcement
// index regardless of which node serves them).
func (r *Router) Hello(client string, keys []string) error {
	for i, conn := range r.conns {
		ack, err := conn.Hello(client, keys)
		if err != nil {
			return fmt.Errorf("cluster: hello to %s: %w", r.ring.Name(i), err)
		}
		r.acks[i] = ack
	}
	return nil
}

// Close closes every node connection, reporting the first error.
func (r *Router) Close() error {
	var first error
	for _, conn := range r.conns {
		if conn == nil {
			continue
		}
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Capacity returns the cluster-wide cache capacity (the sum of the node
// capacities from the handshakes).
func (r *Router) Capacity() int {
	total := 0
	for _, ack := range r.acks {
		total += ack.Capacity
	}
	return total
}

// PolicyName labels cluster results: a single node keeps the node's own
// label (so a 1-node cluster is directly comparable to a direct replay), a
// real cluster prefixes the node count, e.g. "3×CLIC/8".
func (r *Router) PolicyName() string {
	name := "CLIC"
	if len(r.acks) > 0 && r.acks[0].Shards != 1 {
		name = fmt.Sprintf("CLIC/%d", r.acks[0].Shards)
	}
	if len(r.conns) == 1 {
		return name
	}
	return fmt.Sprintf("%d×%s", len(r.conns), name)
}

// RouterHandler consumes one completed pipelined router batch: tag is the
// value given to Submit, isRead flags the positions that were reads and
// hits carries the reassembled verdicts (both in submission order, valid
// only during the call), outq is the cluster-wide outqueue depth summed
// over the nodes that served a sub-batch, and rttNs is the batch's
// submit-to-last-result round-trip time.
type RouterHandler func(tag any, isRead, hits []bool, outq int, rttNs int64) error

// routerBatch is one in-flight pipelined router batch: the reassembly
// state waiting for its sub-batches to come back. Batches recycle through
// the pipeline's free list, so the steady-state routed path allocates
// nothing.
type routerBatch struct {
	pending int       // nodes still to answer
	isRead  []bool    // submission order
	hits    []bool    // submission order, scattered from the sub-results
	index   [][]int32 // per-node submission indices
	outq    int
	tag     any
	start   time.Time
}

// RouterPipeline keeps up to depth batches in flight per node connection:
// every Submit splits its batch by ring owner and feeds the sub-batches
// into per-node netclient.Pipelines, and a router batch is delivered to
// the handler when its last sub-batch completes. Like the Router it is
// not safe for concurrent use. Batches may complete slightly out of
// submission order when they touch disjoint node sets; each node's
// sub-batches always complete in order.
type RouterPipeline struct {
	r       *Router
	pls     []*netclient.Pipeline
	handler RouterHandler
	split   [][]trace.Request // per-Submit scratch (sub-batches are encoded eagerly)
	free    []*routerBatch
}

// Pipeline returns a pipelined sender over the router's node connections
// with at most depth batches in flight per node (capped per node at the
// server's advertised window; depth 1 is lock-step).
func (r *Router) Pipeline(depth int, h RouterHandler) *RouterPipeline {
	rp := &RouterPipeline{
		r:       r,
		pls:     make([]*netclient.Pipeline, len(r.conns)),
		handler: h,
		split:   make([][]trace.Request, len(r.conns)),
	}
	for n := range r.conns {
		n := n
		rp.pls[n] = r.conns[n].Pipeline(depth, func(tag any, _ []bool, res wire.Results, _ int64) error {
			rb := tag.(*routerBatch)
			idx := rb.index[n]
			for i, hit := range res.Hits {
				rb.hits[idx[i]] = hit
			}
			rb.outq += res.OutqueueDepth
			rb.pending--
			if rb.pending > 0 {
				return nil
			}
			err := rp.handler(rb.tag, rb.isRead, rb.hits, rb.outq, int64(time.Since(rb.start)))
			rb.tag = nil
			rp.free = append(rp.free, rb)
			return err
		})
	}
	return rp
}

// Submit routes one batch by ring owner, pages as Ring.Local numbers, and
// sends the sub-batches down the per-node pipelines, completing older
// batches as node windows fill.
// reqs is fully consumed before Submit returns; tag is handed back to the
// handler with the batch's reassembled results.
func (rp *RouterPipeline) Submit(reqs []trace.Request, tag any) error {
	var rb *routerBatch
	if k := len(rp.free); k > 0 {
		rb, rp.free = rp.free[k-1], rp.free[:k-1]
	} else {
		rb = &routerBatch{index: make([][]int32, len(rp.r.conns))}
	}
	for n := range rp.split {
		rp.split[n] = rp.split[n][:0]
		rb.index[n] = rb.index[n][:0]
	}
	if cap(rb.hits) < len(reqs) {
		rb.hits, rb.isRead = make([]bool, len(reqs)), make([]bool, len(reqs))
	}
	rb.hits, rb.isRead = rb.hits[:len(reqs)], rb.isRead[:len(reqs)]
	ring, split, index, isRead := rp.r.ring, rp.split, rb.index, rb.isRead
	for i, req := range reqs {
		n := ring.Owner(req.Page)
		req.Page = ring.Local(req.Page)
		split[n] = append(split[n], req)
		index[n] = append(index[n], int32(i))
		isRead[i] = req.Op == trace.Read
	}
	rb.outq = 0
	rb.tag = tag
	rb.start = time.Now()
	rb.pending = 0
	for n := range rp.split {
		if len(rp.split[n]) > 0 {
			rb.pending++
		}
	}
	if rb.pending == 0 {
		err := rp.handler(tag, rb.isRead, rb.hits, 0, 0)
		rb.tag = nil
		rp.free = append(rp.free, rb)
		return err
	}
	for n := range rp.split {
		if len(rp.split[n]) == 0 {
			continue
		}
		if err := rp.pls[n].Submit(rp.split[n], rb); err != nil {
			return fmt.Errorf("cluster: node %s: %w", rp.r.ring.Name(n), err)
		}
	}
	return nil
}

// Drain flushes and completes every in-flight batch on every node.
func (rp *RouterPipeline) Drain() error {
	for n, pl := range rp.pls {
		if err := pl.Drain(); err != nil {
			return fmt.Errorf("cluster: node %s: %w", rp.r.ring.Name(n), err)
		}
	}
	return nil
}

// ReplayOptions tune the cluster replay drivers.
type ReplayOptions struct {
	// BatchSize is the request count per router batch, split across the
	// nodes by ring owner. 0 selects wire.DefaultBatch per node: a router
	// batch of wire.DefaultBatch times the node count, so each node's frame
	// holds about wire.DefaultBatch requests.
	BatchSize int
	// Depth is the in-flight batch window per node connection, 1 is
	// lock-step. 0 selects netclient.DefaultDepth split over the nodes,
	// max(2, ⌊DefaultDepth/nodes⌋): at most as many frames in flight as
	// one connection, at least 2 per node. Values above a node's
	// advertised window are capped at that node's handshake.
	Depth int
	// Limit caps the total number of requests replayed; 0 replays the
	// whole trace.
	Limit int
}

// depth is the per-node window for a cluster of the given size. By
// Little's law the requests in flight set the queueing delay, so the
// default keeps at most as many frames in flight as one connection
// (nodes × depth ≤ DefaultDepth) up to 4 nodes, and at least 2 per node
// at any size, so every node has a frame queued behind the one it serves.
func (o ReplayOptions) depth(nodes int) int {
	if o.Depth <= 0 {
		return max(2, netclient.DefaultDepth/nodes)
	}
	return o.Depth
}
