package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/server"
)

// HarnessConfig parameterises an in-process cluster.
type HarnessConfig struct {
	// Nodes is the cluster size; 0 selects 1.
	Nodes int
	// Cache is the CLUSTER-WIDE cache configuration: capacity, outqueue
	// and statistics window are split evenly across the nodes, so a 3-node
	// cluster is compared against a single node with the same total
	// resources, not 3× the resources. The window splits because each
	// node's learner counts only the requests routed to it: rotating every
	// W/n of its own requests, a node rotates about once per W requests
	// cluster-wide. (core.Sharded splits no W: its shards feed one learner
	// that counts the whole stream.)
	Cache core.Config
	// Shards is the shard count per node; 0 selects 1 (cluster tests
	// usually shard across nodes, not within them).
	Shards int
	// Merging is read by nothing: every node learns from its own slice of
	// the stream alone. It and Coordinator remain only so that the frozen
	// benchmark (bench/layers.go), which sets it, still compiles; they go
	// with the next declared benchmark revision.
	Merging bool
}

// Coordinator is the inert type Harness.Coordinator returns; the nodes
// exchange nothing.
type Coordinator struct{}

// SetImmediate does nothing.
func (*Coordinator) SetImmediate(bool) {}

// Harness is an in-process cluster: N cache servers on loopback listeners. It
// exists so cluster behaviour — including the headline single-vs-cluster
// ablation — runs inside ordinary go tests over real TCP connections. Its
// nodes hold the ring's local page numbers (Ring): reach them by router.
type Harness struct {
	servers []*server.Server
	nodes   []Node
}

// StartHarness boots the cluster: every node gets its split of the cache
// configuration and a loopback listener.
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
		srv := server.New(server.Config{Cache: sub, Shards: shards})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			h.Close()
			return nil, fmt.Errorf("cluster: starting node %d: %w", i, err)
		}
		h.servers[i] = srv
		h.nodes[i] = Node{Name: fmt.Sprintf("node%d", i), Addr: srv.Addr().String()}
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

// Coordinator returns an empty Coordinator.
func (h *Harness) Coordinator() *Coordinator { return new(Coordinator) }

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
