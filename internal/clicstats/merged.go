package clicstats

import (
	"sync"
	"sync/atomic"

	"repro/internal/hint"
)

// Merged is the cluster-mode learner: a Global learner — fed, like any
// Global, through the taps its Tap method hands out — whose window
// rotations additionally (1) publish the node's just-closed window counters
// so a cluster exchanger can ship them to peer nodes as wire Summary
// frames, and (2) fold counters absorbed from peers into the fresh
// estimates before the decay blend, so every node's priority table is
// learned from (approximately) the cluster-wide request stream while page
// placement stays partitioned by the ring.
//
// The merge is the same arithmetic MergeHintStats applies to in-process
// shards — sum N and Nr, sum the distance sums, recompute Equation 2 —
// followed by the ordinary Equation 3 decay blend, so cross-node learning
// reuses the existing machinery rather than inventing a second estimator.
// Remote counters arrive asynchronously and wait in a pending pool until
// this node's own next rotation; they are one window stale by
// construction, which the decay blend tolerates the same way it tolerates
// any window-to-window drift.
//
// With LocalBias > 0 the fresh estimate becomes a weighted average
// (1-bias)·merged + bias·local, turning the cluster-wide counters into
// priors that per-node corrections can pull against; bias 0 (the default)
// trusts the merged stream outright.
//
// Publishing happens inside the rotation, under the rotation lock and no
// other (see "Locks" on Global), with only this node's local counters —
// never the absorbed remote ones — so a summary forwarded around a cluster
// cannot echo a peer's requests back to it and double-count them.
type Merged struct {
	*Global

	bias float64

	// publish, when set, receives each closed window's local counters and
	// the merge round that closed it. Set once, before traffic.
	publish func(round uint64, local []WindowCounter)

	// mu guards pending and nothing else. Absorb must not need the Global's
	// locks: a peer calls it from inside its own rotation, possibly while
	// this node is inside one of its own calling Absorb on that peer.
	mu      sync.Mutex
	pending map[hint.ID]*winStats

	rounds   atomic.Uint64
	absorbed atomic.Uint64
}

// NewMerged returns a cluster-mode learner for the configuration.
func NewMerged(cfg Config) *Merged {
	if cfg.LocalBias < 0 || cfg.LocalBias >= 1 {
		panic("clicstats: LocalBias must be in [0, 1)")
	}
	m := &Merged{bias: cfg.LocalBias, pending: make(map[hint.ID]*winStats)}
	m.Global = NewGlobal(cfg)
	m.Global.mergeFresh = m.fold
	return m
}

// SetPublish installs the summary publication hook. It must be called
// before the learner sees traffic; the hook runs under the rotation lock,
// so it must not call back into the learner.
func (m *Merged) SetPublish(fn func(round uint64, local []WindowCounter)) {
	m.publish = fn
}

// Absorb folds one peer summary's window counters into the pending pool;
// they take effect at this node's next rotation. Safe for concurrent use
// with the request path.
func (m *Merged) Absorb(counters []WindowCounter) {
	m.mu.Lock()
	for _, wc := range counters {
		ws, ok := m.pending[wc.Hint]
		if !ok {
			ws = &winStats{}
			m.pending[wc.Hint] = ws
		}
		ws.n += wc.N
		ws.nr += wc.Nr
		ws.dsum += wc.Dsum
	}
	m.mu.Unlock()
	m.absorbed.Add(1)
}

// Rounds returns the number of merge rounds (window rotations) completed.
func (m *Merged) Rounds() uint64 { return m.rounds.Load() }

// Absorbed returns the number of peer summaries folded in so far.
func (m *Merged) Absorbed() uint64 { return m.absorbed.Load() }

// PendingHintSets returns the number of hint sets with remote counters
// waiting for the next rotation.
func (m *Merged) PendingHintSets() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// fold is the mergeFresh hook: publish the local window, swap out the
// pending remote counters, and estimate each hint set from the sum of
// both. Runs under the rotation lock.
func (m *Merged) fold(local []WindowCounter) map[hint.ID]float64 {
	round := m.rounds.Add(1)
	if m.publish != nil {
		m.publish(round, local)
	}

	m.mu.Lock()
	pending := m.pending
	m.pending = make(map[hint.ID]*winStats)
	m.mu.Unlock()

	fresh := make(map[hint.ID]float64, len(local)+len(pending))
	for _, wc := range local {
		n, nr, dsum := wc.N, wc.Nr, wc.Dsum
		if ws, ok := pending[wc.Hint]; ok {
			n += ws.n
			nr += ws.nr
			dsum += ws.dsum
			delete(pending, wc.Hint)
		}
		est := windowPriority(n, nr, dsum)
		if m.bias > 0 {
			est = (1-m.bias)*est + m.bias*windowPriority(wc.N, wc.Nr, wc.Dsum)
		}
		fresh[wc.Hint] = est
	}
	// Hint sets only peers saw this round: the local estimate is zero, so
	// bias simply discounts the merged one.
	for h, ws := range pending {
		est := windowPriority(ws.n, ws.nr, ws.dsum)
		if m.bias > 0 {
			est = (1 - m.bias) * est
		}
		fresh[h] = est
	}
	return fresh
}
