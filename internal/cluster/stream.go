package cluster

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/netclient"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Announce extends every node's hint table with keys discovered after
// Hello. The same keys go to every node in the same order, preserving the
// invariant that announcement indices mean the same thing cluster-wide.
// Frames are buffered and ride ahead of each node's next sub-batch.
func (r *Router) Announce(keys []string) error {
	for i, conn := range r.conns {
		if err := conn.Announce(keys); err != nil {
			return fmt.Errorf("cluster: announce to %s: %w", r.ring.Name(i), err)
		}
	}
	return nil
}

// Announced returns how many hint keys this router has announced (the same
// count on every node: Hello and Announce always fan identical key lists).
func (r *Router) Announced() int {
	if len(r.conns) == 0 {
		return 0
	}
	return r.conns[0].Announced()
}

// ReplaySource replays any request source — a trace file, an in-memory
// trace (t.Source()), or a live generator spec — against a cluster, never
// materialising the stream: netclient.ReplaySource generalised from one
// server to N, with one Router (one connection per node) and one goroutine
// per discovered client. Clients and hint keys may appear as the iteration
// proceeds; new keys are announced to every node ahead of the first batch
// that references them. Per-client read accounting is exact; like every
// concurrent replay, the aggregate hit count depends on how the clients'
// requests interleave at the nodes.
//
// The default size (BatchSize 0) is one node's frame, not the router
// batch: the ring splits a batch about evenly, so a router batch of
// wire.DefaultBatch times the node count puts about one such frame on every
// node, and a cluster sends as few frames per request as one connection.
func ReplaySource(nodes []Node, src trace.Source, opt ReplayOptions) (sim.Result, error) {
	it, err := src.Iter()
	if err != nil {
		return sim.Result{}, err
	}
	defer it.Close()
	var (
		mu       sync.Mutex
		policy   string
		capacity int
	)
	batch := opt.BatchSize // an explicit size is the router batch
	if batch <= 0 {
		batch = len(nodes) * wire.DefaultBatch
	}
	res, err := engine.Dispatch(it, opt.Limit, batch,
		func(name string, keys *engine.KeyLog, st *sim.ClientStat) (engine.Session, error) {
			router, err := DialRouter(nodes, 0)
			if err != nil {
				return nil, err
			}
			if err := router.Hello(name, keys.Since(0)); err != nil {
				router.Close()
				return nil, err
			}
			mu.Lock()
			policy, capacity = router.PolicyName(), router.Capacity()
			mu.Unlock()
			s := &session{router: router, keys: keys, st: st}
			s.pl = router.Pipeline(opt.depth(len(nodes)), s.account)
			return s, nil
		})
	if err != nil {
		return sim.Result{}, err
	}
	res.Policy = policy
	res.CacheSize = capacity
	return res, nil
}

// session is one replayed client's engine.Session: a pipelined router
// whose result handler counts the client's read hits.
type session struct {
	router *Router
	pl     *RouterPipeline
	keys   *engine.KeyLog
	st     *sim.ClientStat
}

func (s *session) account(_ any, isRead, hits []bool, _ int, _ int64) error {
	reads, readHits := netclient.CountReads(isRead, hits)
	s.st.Reads += reads
	s.st.ReadHits += readHits
	return nil
}

func (s *session) Submit(reqs []trace.Request) error {
	if err := s.router.Announce(s.keys.Since(s.router.Announced())); err != nil {
		return err
	}
	return s.pl.Submit(reqs, nil)
}

func (s *session) Drain() error { return s.pl.Drain() }
func (s *session) Close() error { return s.router.Close() }
