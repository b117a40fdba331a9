package clicstats

import (
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/hint"
)

// Global is the shared learner: every shard of a sharded cache feeds it and
// reads it, so the priority model Pr(H) is learned from the cache-wide
// request stream over the full window W while page placement stays
// hash-partitioned — the design the per-shard W/N heuristic approximates.
// It holds one window of counters and one published priority table; it is
// not itself a Learner. Each cache that shares it owns a tap (Global.Tap: a
// Learner in tap scope), and the tap is the only way in.
//
// Tap protocol. A tap belongs to one cache and is driven by whichever one
// goroutine drives that cache; any number of taps may run concurrently.
//
//   - Lease. Begin(n) opens a frame of n requests with one atomic add to
//     requests, which leases the frame the request numbers (end-n, end].
//     One division then tells the tap whether a multiple of W falls inside
//     the lease and at which of its requests, and arms its countdown for
//     that request or, if none, for the lease's last. Request numbers are
//     handed out once, so every multiple of W lies in exactly one lease and
//     exactly one rotation happens per W requests, however many shards feed
//     the learner. A lease is a promise: Begin(n) must be followed by
//     exactly n EndRequests (core.Sharded leases a whole frame, or one
//     request on its per-request path, and always runs it to its end).
//     EndRequest outside a lease panics, as Begin inside one does.
//   - Buffer. Arrive and Reref append to the tap's private event buffer:
//     no lock, no shared cache line.
//   - Flush. At the request a multiple of W falls on, EndRequest replays
//     the buffer, in order, into the shared window under the counter lock
//     mu, then rotates and reports true; a lease with W or more requests
//     left re-arms for the next multiple. At the lease's last request it
//     just flushes. So mu is taken once per frame, not once per event.
//   - Read. Priority and Epoch are wait-free: the priority table is
//     immutable behind an atomic pointer, republished once per rotation, and
//     carries its own dense hint-ID-indexed copy. Caches re-key their victim
//     heaps lazily, at their next request, by observing the epoch change.
//
// Cluster learning. In a cluster of cache nodes each node's Global also
// learns from its peers' streams. At every rotation it hands the drained
// window's counters, with the round (the epoch the rotation publishes), to
// the hook set by SetPublish, so an exchanger can ship them to the peers as
// wire Summary frames. A peer's counters come back through Absorb and wait
// in a pending pool; the next rotation sums them into the local counters
// before Equation 2, the arithmetic MergeHintStats applies across shards,
// followed by the ordinary Equation 3 blend. Absorbed counters are thus one
// window stale, which the blend tolerates like any window-to-window drift.
// Only local counters are published, never absorbed ones, so a summary
// cannot echo back to the node that sent it. With nothing absorbed a
// rotation learns from the local window alone.
//
// Locks. rotateMu serializes rotations; mu guards win; pendingMu guards
// pending. The order is rotateMu, then mu or pendingMu, and neither of those
// is held across a call out: a flush releases mu before rotate, and rotate
// holds mu only to drain the window and pendingMu only to swap the pool, so
// the publish hook runs under rotateMu only. That matters in a cluster
// whose exchanger delivers at publish time: node A's rotation calls Absorb
// on nodes B and C while they may be rotating into A, and the cycle is
// harmless only because Absorb takes pendingMu and nothing else.
//
// What is exact and what is relaxed. Driven by one goroutine — any number
// of taps, leases of any length — a Global is bit-identical to a lone
// Learner fed the same events, at every EndRequest, in exact and in
// top-k mode: the events reach the same window type in the same order and
// the rotations fall on the same requests. Under concurrent taps the
// rotation count stays exact, but a frame in flight lands in whichever
// window its flush reaches, and WindowStats/TrackedHintSets, which read the
// shared window, lag by at most one unflushed frame per busy shard — the
// same caveat core.Sharded.Stats documents for its counters.
type Global struct {
	cfg Config

	// table is the immutable priority table + epoch in effect: read by
	// every request, written once per rotation.
	table   atomic.Pointer[globalTable]
	windows atomic.Int64
	// rotateMu serializes rotations: with small windows or long frames two
	// taps can reach their boundaries together.
	rotateMu sync.Mutex
	// publish, when set, receives each closed window's local counters and
	// the round it closes. Set once, before traffic; called under rotateMu
	// and no other lock.
	publish func(round uint64, local []WindowCounter)

	// pendingMu guards pending, the peer counters absorbed since the last
	// rotation, and nothing else (see "Locks").
	pendingMu sync.Mutex
	pending   map[hint.ID]*winStats
	absorbed  atomic.Uint64

	// requests numbers the requests leased so far. Every frame of every
	// shard adds to it, so it is padded to a cache line of its own wherever
	// the struct lands, away from the table pointer above that every
	// request reads.
	_        [cacheLine - 8]byte
	requests atomic.Uint64
	_        [cacheLine - 8]byte

	// mu guards win, the current window's counters: taken once per flush
	// and once per rotation.
	mu  sync.Mutex
	win window
}

// cacheLine is the coherence granule Global's hot words are padded to.
const cacheLine = 64

// globalTable is one published priority table. dense is pr indexed by hint
// ID, which is what the request path reads.
type globalTable struct {
	pr    map[hint.ID]float64
	dense []float64
	epoch uint64
}

// NewGlobal returns a shared learner for the configuration.
func NewGlobal(cfg Config) *Global {
	cfg.validate()
	g := &Global{cfg: cfg, win: newWindow(cfg.TopK)}
	g.table.Store(&globalTable{pr: map[hint.ID]float64{}})
	return g
}

// SetPublish installs the hook that receives each closed window's local
// counters and its round. It must be called before the learner sees
// traffic. The hook runs inside the rotation, so it must not feed a tap of
// this learner; calling Absorb is safe.
func (g *Global) SetPublish(fn func(round uint64, local []WindowCounter)) {
	g.publish = fn
}

// Absorb adds one peer summary's window counters to the pending pool; they
// take effect at this learner's next rotation. Safe for concurrent use with
// everything else, including a rotation in progress.
func (g *Global) Absorb(counters []WindowCounter) {
	g.pendingMu.Lock()
	if g.pending == nil {
		g.pending = make(map[hint.ID]*winStats, len(counters))
	}
	for _, wc := range counters {
		ws, ok := g.pending[wc.Hint]
		if !ok {
			ws = &winStats{}
			g.pending[wc.Hint] = ws
		}
		ws.n += wc.N
		ws.nr += wc.Nr
		ws.dsum += wc.Dsum
	}
	g.pendingMu.Unlock()
	g.absorbed.Add(1)
}

// Absorbed returns the number of peer summaries absorbed so far.
func (g *Global) Absorbed() uint64 { return g.absorbed.Load() }

// PendingHintSets returns the number of hint sets with peer counters
// waiting for the next rotation.
func (g *Global) PendingHintSets() int {
	g.pendingMu.Lock()
	defer g.pendingMu.Unlock()
	return len(g.pending)
}

// rotate closes the current window: it drains the shared counters,
// publishes them, sums in the pending peer counters, blends the fresh
// estimates into a copy of the priority table (Equation 3), and republishes
// the table with the next epoch.
func (g *Global) rotate() {
	g.rotateMu.Lock()
	defer g.rotateMu.Unlock()

	g.mu.Lock()
	local := make([]WindowCounter, 0, g.win.len())
	g.win.each(func(wc WindowCounter) { local = append(local, wc) })
	g.win.reset()
	g.mu.Unlock()

	old := g.table.Load()
	if g.publish != nil {
		g.publish(old.epoch+1, local)
	}

	g.pendingMu.Lock()
	pending := g.pending
	g.pending = nil
	g.pendingMu.Unlock()

	fresh := make(map[hint.ID]float64, len(local)+len(pending))
	for _, wc := range local {
		n, nr, dsum := wc.N, wc.Nr, wc.Dsum
		if ws, ok := pending[wc.Hint]; ok {
			n += ws.n
			nr += ws.nr
			dsum += ws.dsum
			delete(pending, wc.Hint)
		}
		fresh[wc.Hint] = WindowPriority(n, nr, dsum)
	}
	// Hint sets only peers saw this window.
	for h, ws := range pending {
		fresh[h] = WindowPriority(ws.n, ws.nr, ws.dsum)
	}

	pr := make(map[hint.ID]float64, len(old.pr)+len(fresh))
	for h, v := range old.pr {
		pr[h] = v
	}
	blend(pr, fresh, g.cfg.R)
	g.table.Store(&globalTable{pr: pr, dense: densify(nil, pr), epoch: old.epoch + 1})
	g.windows.Add(1)
}

// Priority returns Pr(h) from the table currently in effect; wait-free.
func (g *Global) Priority(h hint.ID) float64 {
	if dense := g.table.Load().dense; int(h) < len(dense) {
		return dense[h]
	}
	return 0
}

// Epoch identifies the table currently in effect; wait-free.
func (g *Global) Epoch() uint64 { return g.table.Load().epoch }

// Windows returns the number of completed statistics windows.
func (g *Global) Windows() int { return int(g.windows.Load()) }

// Priorities returns a copy of the priority table in effect.
func (g *Global) Priorities() map[hint.ID]float64 {
	return maps.Clone(g.table.Load().pr)
}

// WindowStats snapshots the shared window's counters, sorted by descending
// N. Events still buffered in taps are not in it.
func (g *Global) WindowStats() []HintStat {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.win.hintStats()
}

// TrackedHintSets returns the number of hint sets with statistics in the
// shared window (bounded by k in top-k mode).
func (g *Global) TrackedHintSets() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.win.len()
}
