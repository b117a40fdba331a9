package clicstats

import (
	"sync"
	"sync/atomic"

	"repro/internal/hint"
)

// Global is the shared learner: every shard of a sharded cache feeds it and
// reads it, so the priority model Pr(H) is learned from the cache-wide
// request stream over the full window W while page placement stays
// hash-partitioned — the design the per-shard W/N heuristic approximates.
// It holds one window of counters and one published priority table; it is
// not itself a Learner. Each cache that shares it owns a Tap (Global.Tap),
// and the tap is the only way in.
//
// Tap protocol. A tap belongs to one cache and is driven by whichever one
// goroutine drives that cache; any number of taps may run concurrently.
//
//   - Lease. Tap.Begin(n) opens a frame of n requests with one atomic add to
//     requests, which leases the frame the request numbers (end-n, end].
//     One division then tells the tap whether a multiple of W falls inside
//     the lease and at which of its requests. Request numbers are handed
//     out once, so every multiple of W lies in exactly one lease and exactly
//     one rotation happens per W requests, however many shards feed the
//     learner. A lease is a promise: Begin(n) must be followed by exactly n
//     EndRequests (core.Sharded's frame loop is the one caller, and a frame
//     always runs to its end). An EndRequest with no lease open flushes
//     and then leases one request for itself, which is how a plain Cache or
//     a per-request front drives a tap.
//   - Buffer. Arrive and Reref append to the tap's private event buffer:
//     no lock, no shared cache line.
//   - Flush. At the request a multiple of W falls on, EndRequest replays
//     the buffer, in order, into the shared window under the counter lock
//     mu, then rotates and reports true; a lease longer than W re-arms for
//     the next multiple. At the lease's last request it just flushes. So mu
//     is taken once per frame, not once per event.
//   - Read. Priority and Epoch are wait-free: the priority table is
//     immutable behind an atomic pointer, republished once per rotation, and
//     carries its own dense hint-ID-indexed copy. Caches re-key their victim
//     heaps lazily, at their next request, by observing the epoch change.
//
// Locks. rotateMu serializes rotations; mu guards win. The order is
// rotateMu, then mu, and mu is never held across a call out: a flush
// releases it before rotate, and rotate holds it only to drain the window,
// so mergeFresh — and through it Merged's publish hook — runs under
// rotateMu only. That matters in a cluster whose exchanger delivers at
// publish time: node A's rotation calls Merged.Absorb on nodes B and C while
// they may be rotating into A, and the cycle is harmless only because Absorb
// takes neither of these locks (Merged keeps a separate pending lock).
//
// What is exact and what is relaxed. Driven by one goroutine — any number
// of taps, frames of any length, leased or not — a Global is bit-identical
// to a Partitioned fed the same events, at every EndRequest, in exact and
// in top-k mode: the events reach the same window type in the same order
// and the rotations fall on the same requests. Under concurrent taps the
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
	// mergeFresh, when non-nil, replaces the default local-only fresh
	// estimates at rotation with ones computed from the drained window
	// counters plus whatever else the wrapper knows — Merged hooks in here
	// to fold counters absorbed from cluster peers. Called under rotateMu
	// and no other lock.
	mergeFresh func(local []WindowCounter) map[hint.ID]float64

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

// rotate closes the current window: it drains the shared counters, blends
// the fresh estimates into a copy of the priority table (Equation 3), and
// republishes the table with the next epoch.
func (g *Global) rotate() {
	g.rotateMu.Lock()
	defer g.rotateMu.Unlock()

	g.mu.Lock()
	local := make([]WindowCounter, 0, g.win.len())
	g.win.each(func(wc WindowCounter) { local = append(local, wc) })
	g.win.reset()
	g.mu.Unlock()

	var fresh map[hint.ID]float64
	if g.mergeFresh != nil {
		fresh = g.mergeFresh(local)
	} else {
		fresh = make(map[hint.ID]float64, len(local))
		for _, wc := range local {
			fresh[wc.Hint] = windowPriority(wc.N, wc.Nr, wc.Dsum)
		}
	}

	old := g.table.Load()
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
	pr := g.table.Load().pr
	out := make(map[hint.ID]float64, len(pr))
	for h, v := range pr {
		out[h] = v
	}
	return out
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

// Tap is one cache's private handle on a Global and the Learner that cache
// is built around. Its write side — Arrive, Reref, EndRequest, Begin — is
// the tap protocol described on Global and belongs to the goroutine driving
// the cache; its read side is the shared learner's, promoted.
type Tap struct {
	*Global

	// events buffers this tap's arrivals and re-references since its last
	// flush, in request order.
	events []tapEvent
	// left is the number of requests the open lease still owes (0: no
	// lease); toRotate counts down to the one of them that lands on a
	// multiple of W (0: none does).
	left, toRotate int

	// Taps are allocated one per shard, back to back, and written on every
	// request: round each up to a cache line so neighbours never share one.
	_ [cacheLine - 48]byte
}

// tapEvent is one buffered Arrive (reref false) or Reref.
type tapEvent struct {
	dist  uint64
	h     hint.ID
	reref bool
}

var _ Learner = (*Tap)(nil)

// Tap returns a new tap on g for one cache.
func (g *Global) Tap() *Tap { return &Tap{Global: g} }

// Begin leases the next n requests to this tap; exactly n EndRequests must
// follow before the next Begin.
func (t *Tap) Begin(n int) {
	if t.left != 0 {
		panic("clicstats: Tap.Begin inside an open lease")
	}
	w := uint64(t.cfg.Window)
	start := t.requests.Add(uint64(n)) - uint64(n)
	t.left, t.toRotate = n, 0
	if to := w - start%w; to <= uint64(n) {
		t.toRotate = int(to)
	}
}

// Arrive implements Learner.
func (t *Tap) Arrive(h hint.ID) {
	t.events = append(t.events, tapEvent{h: h})
}

// Reref implements Learner.
func (t *Tap) Reref(h hint.ID, dist uint64) {
	t.events = append(t.events, tapEvent{h: h, dist: dist, reref: true})
}

// EndRequest implements Learner.
func (t *Tap) EndRequest() bool {
	if t.left == 0 {
		// No lease: flush, then draw this request's number. In that order
		// whatever this goroutine fed the tap is in the shared window before
		// the number that may close the window exists — request by request,
		// a tap behaves as if it fed the shared window directly.
		t.flush()
		t.Begin(1)
	}
	t.left--
	if t.toRotate > 0 {
		if t.toRotate--; t.toRotate == 0 {
			t.flush()
			t.rotate()
			if w := t.cfg.Window; w <= t.left {
				t.toRotate = w
			}
			return true
		}
	}
	if t.left == 0 {
		t.flush()
	}
	return false
}

// flush replays the buffered events, in order, into the shared window.
func (t *Tap) flush() {
	if len(t.events) == 0 {
		return
	}
	g := t.Global
	g.mu.Lock()
	for i := range t.events {
		if ev := &t.events[i]; ev.reref {
			g.win.Reref(ev.h, ev.dist)
		} else {
			g.win.Arrive(ev.h)
		}
	}
	g.mu.Unlock()
	t.events = t.events[:0]
}
