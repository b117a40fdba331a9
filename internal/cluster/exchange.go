package cluster

import (
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/netclient"
	"repro/internal/server"
	"repro/internal/wire"
)

// Coordinator is the in-process summary exchanger: every node's publish
// hook enqueues its window summaries here, and Step delivers everything
// queued to all other nodes. Holding summaries until Step makes cluster
// replays schedulable — a serial driver that steps between request batches
// gets a fully deterministic exchange (delivery is sorted by origin and
// round, so even summaries enqueued concurrently land in canonical order),
// which is what makes the cluster ablation golden-testable. SetImmediate
// switches to delivery at publish time for concurrent stress runs, where
// determinism is out the window anyway.
type Coordinator struct {
	mu        sync.Mutex
	servers   []*server.Server
	queue     []queuedSummary
	immediate bool
	delivered metrics.Counter
}

// queuedSummary is one published summary awaiting delivery, tagged with
// the index of the node that published it (so it is not delivered back).
type queuedSummary struct {
	origin int
	sum    wire.Summary
}

// NewCoordinator returns a coordinator for an n-node cluster. Wire each
// node i with Publisher(i) as its server.Config.OnSummary, then Register
// the built server under the same index.
func NewCoordinator(n int) *Coordinator {
	return &Coordinator{servers: make([]*server.Server, n)}
}

// Publisher returns the publication hook for node origin. The hook only
// enqueues (or, in immediate mode, delivers) — safe to call from inside
// the learner's rotation.
func (c *Coordinator) Publisher(origin int) func(wire.Summary) {
	return func(sum wire.Summary) {
		c.mu.Lock()
		if c.immediate {
			targets := c.deliveryTargets(origin)
			c.mu.Unlock()
			c.deliver(targets, sum)
			return
		}
		c.queue = append(c.queue, queuedSummary{origin: origin, sum: sum})
		c.mu.Unlock()
	}
}

// Register attaches the built server for node origin.
func (c *Coordinator) Register(origin int, srv *server.Server) {
	c.mu.Lock()
	c.servers[origin] = srv
	c.mu.Unlock()
}

// SetImmediate toggles delivery at publish time (plus a drain of anything
// already queued when turning it on).
func (c *Coordinator) SetImmediate(on bool) {
	c.mu.Lock()
	c.immediate = on
	c.mu.Unlock()
	if on {
		c.Step()
	}
}

// deliveryTargets returns every registered server except origin's, in node
// order. Callers hold c.mu.
func (c *Coordinator) deliveryTargets(origin int) []*server.Server {
	targets := make([]*server.Server, 0, len(c.servers)-1)
	for i, srv := range c.servers {
		if i != origin && srv != nil {
			targets = append(targets, srv)
		}
	}
	return targets
}

// deliver absorbs one summary into every target. Absorption errors are
// impossible by construction here (every registered server runs global
// mode) but surface defensively via panic rather than silent loss.
func (c *Coordinator) deliver(targets []*server.Server, sum wire.Summary) {
	for _, srv := range targets {
		if err := srv.AbsorbSummary(sum); err != nil {
			panic("cluster: coordinator delivery failed: " + err.Error())
		}
		c.delivered.Inc()
	}
}

// Step delivers every queued summary to all other nodes and reports how
// many deliveries it made. Delivery order is canonical — summaries sort by
// (origin, round) — so stepping between the batches of a serial replay is
// deterministic no matter how the publishing rotations interleaved.
func (c *Coordinator) Step() int {
	c.mu.Lock()
	queue := c.queue
	c.queue = nil
	c.mu.Unlock()
	if len(queue) == 0 {
		return 0
	}
	sort.SliceStable(queue, func(i, j int) bool {
		if queue[i].origin != queue[j].origin {
			return queue[i].origin < queue[j].origin
		}
		return queue[i].sum.Round < queue[j].sum.Round
	})
	n := 0
	for _, q := range queue {
		c.mu.Lock()
		targets := c.deliveryTargets(q.origin)
		c.mu.Unlock()
		c.deliver(targets, q.sum)
		n += len(targets)
	}
	return n
}

// Pending returns the number of summaries awaiting Step.
func (c *Coordinator) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// Delivered returns the total deliveries made (one per summary per target).
func (c *Coordinator) Delivered() uint64 { return c.delivered.Value() }

// Gossip is the over-the-wire summary exchanger for real deployments
// (cmd/clicserve -peers): a node's publish hook hands summaries to a
// background sender that ships them to every peer over ordinary protocol
// connections (wire Summary frames). Publication is non-blocking and
// lossy by design — a full buffer or an unreachable peer drops the
// summary and counts it, because a window summary is a perishable
// statistical aid, not state: the next rotation publishes a fresh one,
// and merged learning degrades gracefully toward local-only learning in
// the meantime.
type Gossip struct {
	peers []string
	ch    chan wire.Summary
	wg    sync.WaitGroup

	mu    sync.Mutex
	conns map[string]*netclient.Conn

	published metrics.Counter
	dropped   metrics.Counter
}

// DefaultGossipBuffer is the publication buffer when NewGossip gets 0: a
// handful of rotations of slack before a slow peer costs summaries.
const DefaultGossipBuffer = 16

// NewGossip starts a gossip sender shipping to the peer addresses. Use
// Publish (or hand it to server.Config.OnSummary) to send; Close to stop.
func NewGossip(peers []string, buffer int) *Gossip {
	if buffer <= 0 {
		buffer = DefaultGossipBuffer
	}
	g := &Gossip{
		peers: append([]string(nil), peers...),
		ch:    make(chan wire.Summary, buffer),
		conns: make(map[string]*netclient.Conn),
	}
	g.wg.Add(1)
	go g.run()
	return g
}

// Publish enqueues one summary for delivery to every peer. Never blocks;
// a full buffer drops the summary (counted in Dropped).
func (g *Gossip) Publish(sum wire.Summary) {
	select {
	case g.ch <- sum:
	default:
		g.dropped.Add(uint64(len(g.peers)))
	}
}

// run is the sender loop: one summary at a time, to every peer, dialing
// lazily and redialing after errors.
func (g *Gossip) run() {
	defer g.wg.Done()
	for sum := range g.ch {
		for _, peer := range g.peers {
			if err := g.send(peer, sum); err != nil {
				g.dropped.Inc()
			} else {
				g.published.Inc()
			}
		}
	}
	g.mu.Lock()
	for _, conn := range g.conns {
		conn.Close()
	}
	g.conns = nil
	g.mu.Unlock()
}

// send ships one summary to one peer, (re)establishing the connection as
// needed. A send error tears the connection down so the next summary
// redials.
func (g *Gossip) send(peer string, sum wire.Summary) error {
	g.mu.Lock()
	conn := g.conns[peer]
	g.mu.Unlock()
	if conn == nil {
		c, err := netclient.Dial(peer)
		if err != nil {
			return err
		}
		if _, err := c.Hello("gossip:"+sum.Node, nil); err != nil {
			c.Close()
			return err
		}
		conn = c
		g.mu.Lock()
		g.conns[peer] = conn
		g.mu.Unlock()
	}
	if err := conn.SendSummary(sum); err != nil {
		conn.Close()
		g.mu.Lock()
		if g.conns[peer] == conn {
			delete(g.conns, peer)
		}
		g.mu.Unlock()
		return err
	}
	return nil
}

// Published returns successful peer deliveries; Dropped returns summaries
// lost to full buffers or peer errors (both counted per peer).
func (g *Gossip) Published() uint64 { return g.published.Value() }
func (g *Gossip) Dropped() uint64   { return g.dropped.Value() }

// Close stops the sender and closes the peer connections. Summaries still
// buffered are sent first.
func (g *Gossip) Close() {
	close(g.ch)
	g.wg.Wait()
}
