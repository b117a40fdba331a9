package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// HarnessConfig parameterises an in-process cluster.
type HarnessConfig struct {
	// Nodes is the cluster size; 0 selects 1.
	Nodes int
	// Cache is the CLUSTER-WIDE cache configuration: capacity, outqueue
	// and statistics window are split evenly across the nodes (the same
	// resource-conserving split core.Sharded applies across shards), so a
	// 3-node cluster is compared against a single node with the same total
	// resources, not 3× the resources.
	Cache core.Config
	// Shards is the shard count per node; 0 selects 1 (cluster tests
	// usually shard across nodes, not within them).
	Shards int
	// Merging wires the nodes' shared learners through a Coordinator, so
	// window summaries flow between them. Without it nodes learn only
	// from their own slice of the stream.
	Merging bool
}

// Harness is an in-process cluster: N cache servers on loopback listeners
// plus, in merging mode, the coordinator exchanging their window
// summaries. It exists so cluster behaviour — including the headline
// single-vs-cluster ablation — runs inside ordinary go tests over real
// TCP connections.
type Harness struct {
	servers []*server.Server
	nodes   []Node
	coord   *Coordinator
}

// StartHarness boots the cluster: every node gets its split of the cache
// configuration, a loopback listener, and (in merging mode) the
// coordinator's publish hook.
func StartHarness(cfg HarnessConfig) (*Harness, error) {
	n := cfg.Nodes
	if n <= 0 {
		n = 1
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	window := cfg.Cache.Window
	if window == 0 {
		window = core.DefaultWindow
	}
	h := &Harness{
		servers: make([]*server.Server, n),
		nodes:   make([]Node, n),
	}
	if cfg.Merging {
		h.coord = NewCoordinator(n)
	}
	for i := 0; i < n; i++ {
		sub := cfg.Cache
		sub.Capacity = splitEven(cfg.Cache.Capacity, n, i)
		sub.Window = splitEven(window, n, i)
		if sub.Window < 1 {
			sub.Window = 1
		}
		// A zero Noutq means "default to 5× capacity", which the node's own
		// smaller capacity already scales; only explicit entry counts split.
		if cfg.Cache.Noutq > 0 {
			if q := splitEven(cfg.Cache.Noutq, n, i); q > 0 {
				sub.Noutq = q
			} else {
				sub.Noutq = core.NoOutqueue
			}
		}
		scfg := server.Config{
			Cache:  sub,
			Shards: shards,
			Node:   fmt.Sprintf("node%d", i),
		}
		if cfg.Merging {
			scfg.OnSummary = h.coord.Publisher(i)
		}
		srv := server.New(scfg)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			h.Close()
			return nil, fmt.Errorf("cluster: starting node %d: %w", i, err)
		}
		h.servers[i] = srv
		h.nodes[i] = Node{Name: scfg.Node, Addr: srv.Addr().String()}
		if cfg.Merging {
			h.coord.Register(i, srv)
		}
	}
	return h, nil
}

// splitEven distributes total across n buckets, remainder to the lowest
// indices (mirrors core.Sharded's capacity split).
func splitEven(total, n, i int) int {
	v := total / n
	if i < total%n {
		v++
	}
	return v
}

// Nodes returns the cluster's routing table (stable names, live
// addresses) for DialRouter / ReplaySource.
func (h *Harness) Nodes() []Node { return h.nodes }

// Server returns node i's server (stats, snapshots).
func (h *Harness) Server(i int) *server.Server { return h.servers[i] }

// Coordinator returns the summary exchanger (nil without Merging).
func (h *Harness) Coordinator() *Coordinator { return h.coord }

// Close shuts every node down.
func (h *Harness) Close() error {
	var first error
	for _, srv := range h.servers {
		if srv == nil {
			continue
		}
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReplaySerial replays a trace through one router, one batch at a time in
// trace order (a depth-1 pipeline drained after every batch), exchanging
// summaries between batches. Single driver, no concurrent producers,
// canonical exchange order: the result is fully deterministic — the mode
// the golden tests and the cluster ablation run in. Per-client accounting
// is derived from the request tags, exactly like sim.Run's round-robin
// replay.
func (h *Harness) ReplaySerial(t *trace.Trace) (sim.Result, error) {
	router, err := DialRouter(h.nodes, 0)
	if err != nil {
		return sim.Result{}, err
	}
	defer router.Close()
	if err := router.Hello("harness", t.Dict.Keys()); err != nil {
		return sim.Result{}, err
	}
	res := sim.Result{
		Trace:     t.Name,
		Policy:    router.PolicyName(),
		CacheSize: router.Capacity(),
		Requests:  uint64(len(t.Reqs)),
		PerClient: make([]sim.ClientStat, len(t.Clients)),
	}
	for c, name := range t.Clients {
		res.PerClient[c].Name = name
	}
	var batch []trace.Request // the one batch in flight
	pl := router.Pipeline(1, func(_ any, isRead, hits []bool, _ int, _ int64) error {
		for i, rd := range isRead {
			if rd {
				st := &res.PerClient[batch[i].Client]
				st.Reads++
				res.Reads++
				if hits[i] {
					st.ReadHits++
					res.ReadHits++
				}
			}
		}
		return nil
	})
	for reqs := t.Reqs; len(reqs) > 0; reqs = reqs[len(batch):] {
		batch = reqs[:min(wire.DefaultBatch, len(reqs))]
		if err := pl.Submit(batch, nil); err != nil {
			return sim.Result{}, err
		}
		if err := pl.Drain(); err != nil {
			return sim.Result{}, err
		}
		if h.coord != nil {
			h.coord.Step()
		}
	}
	return res, nil
}
