package clicstats

import (
	"maps"
	"runtime"
	"sync/atomic"

	"repro/internal/hint"
)

// Learner is one cache's statistics learner, in one of the two scopes the
// package comment describes: lone (NewPartitioned), or a tap (Global.Tap)
// on a shared Global. Either way it counts in a window of its own, reads a
// priority table of its own, and is not safe for concurrent use, exactly
// like the cache that owns it. The cache calls Arrive, Reref and
// EndRequest, in that order, for every request.
//
// Arrive, EndRequest, Epoch and Priority inline into the cache's request
// path: the common case, in either scope, is a counter bump and a
// countdown, and everything else — a rotation, a tap's lease, a hint set
// new to the window — is behind one call. Arrive has no room in the
// inlining budget for that call, so it leaves such an arrival pending, and
// the next Reref or EndRequest counts it first: the events still reach the
// window in request order.
//
// A lone learner's steady state is allocation-free: the window counters
// recycle (see window), and the blend reuses one scratch estimates map.
type Learner struct {
	// countdown is the number of requests until EndRequest takes its slow
	// path: a lone learner's window boundary; for a tap, the next multiple
	// of W in its lease or, if none, the lease's end (0: no lease open).
	countdown int
	// g is the shared learner a tap feeds; nil for a lone learner.
	g *Global
	// pending says Arrive left the arrival of pendingHint for the next
	// Reref or EndRequest to count.
	pendingHint hint.ID
	pending     bool
	// window holds this learner's counters: a lone learner's whole window,
	// a tap's share of the shared one, which a rotation sums.
	window

	// The priority table: dense is the table in effect indexed by hint ID,
	// what Priority reads, and epoch identifies it. A lone learner computes
	// it at each window boundary: pr holds the priorities (Equation 3),
	// republished into dense after each blend, fresh is the scratch
	// estimates map handed to blend, cleared (not reallocated) after use,
	// and windows counts the rotations. A tap copies dense and epoch from
	// its Global (Global.adopt).
	epoch   uint64
	dense   []float64
	pr      map[hint.ID]float64
	fresh   map[hint.ID]float64
	windows int

	cfg Config

	// A tap's lease: left is the number of requests the lease owes after
	// the countdown runs out; rotating says the countdown ends on a
	// multiple of W rather than at the lease's end. state says who may
	// touch the window (tapIdle and the rest); owes is the round a
	// rotation marked it owed to, guarded by the Global's rotateMu.
	left     int
	owes     *round
	state    atomic.Uint32
	rotating bool

	// Learners are allocated one per shard and written on every request:
	// round each up to a cache line so neighbours never share one
	// (TestLearnerLayout checks the arithmetic).
	_ [cacheLine - 29]byte
}

// NewPartitioned returns a lone learner for the configuration, the one a
// plain core.Cache learns through. The name is older than the shared
// learner, from when every shard of a sharded front had a lone learner.
func NewPartitioned(cfg Config) *Learner {
	cfg.validate()
	return &Learner{
		countdown: cfg.Window,
		cfg:       cfg,
		pr:        make(map[hint.ID]float64),
		window:    newWindow(cfg.TopK),
		fresh:     make(map[hint.ID]float64),
	}
}

// Tap returns a new learner feeding g, for one cache.
func (g *Global) Tap() *Learner {
	l := &Learner{g: g, cfg: g.cfg, window: newWindow(g.cfg.TopK)}
	g.rotateMu.Lock()
	g.taps = append(g.taps, l)
	g.rotateMu.Unlock()
	return l
}

// Arrive records one request carrying hint set h (N(H) += 1). Only hint
// sets already tracked in the window are counted here; the rest is left
// pending (see Learner).
func (l *Learner) Arrive(h hint.ID) {
	if slot := l.sum.Slot(h); slot != 0 {
		l.sum.Bump(slot)
		return
	}
	l.pendingHint, l.pending = h, true
}

// settle counts a pending arrival in the window.
func (l *Learner) settle() {
	if !l.pending {
		return
	}
	l.pending = false
	l.window.Arrive(l.pendingHint)
}

// Reref records that a request with hint set h was followed by a read
// re-reference at the given distance (Nr(H) += 1, D-sum += dist), by the
// rule window.Reref states.
func (l *Learner) Reref(h hint.ID, dist uint64) {
	l.settle()
	l.window.Reref(h, dist)
}

// EndRequest counts one request against the window and reports whether
// this call closed a window (rotating statistics into the priority table
// and advancing the epoch, §3.2). A tap's EndRequest must fall inside a
// lease.
func (l *Learner) EndRequest() bool {
	l.countdown--
	if l.countdown > 0 && !l.pending {
		return false
	}
	return l.endRequest()
}

// endRequest is EndRequest's slow path. It counts a pending arrival and,
// at the end of the countdown, a lone learner rotates its window; a tap
// either opens the Global's next round and re-arms for the next multiple
// of W in its lease, or closes the lease.
func (l *Learner) endRequest() bool {
	l.settle()
	if l.countdown > 0 {
		return false
	}
	if l.g == nil {
		l.rotate()
		l.countdown = l.cfg.Window
		return true
	}
	if l.countdown < 0 {
		l.countdown = 0
		panic("clicstats: Learner.EndRequest outside a tap's lease")
	}
	if !l.rotating {
		l.g.release(l)
		return false
	}
	l.g.rotate(l)
	if w := l.cfg.Window; w <= l.left {
		l.countdown, l.left = w, l.left-w
		return true
	}
	l.countdown, l.left, l.rotating = l.left, 0, false
	if l.countdown == 0 {
		l.g.release(l)
	}
	return true
}

// rotate closes a lone learner's window: Equation 2 per hint set, blended
// into the priority table with decay r (Equation 3).
func (l *Learner) rotate() {
	l.window.each(func(wc WindowCounter) {
		l.fresh[wc.Hint] = WindowPriority(wc.N, wc.Nr, wc.Dsum)
	})
	blend(l.pr, l.fresh, l.cfg.R)
	clear(l.fresh)
	l.dense = densify(l.dense, l.pr)
	l.window.reset()
	l.windows++
	l.epoch++
}

// Begin leases the next n > 0 requests of g's request numbering to this
// tap; exactly n EndRequests must follow before the next Begin. While a
// rotation or a stats read holds the tap's idle window, Begin waits for it.
// If a round was published since the tap's table was copied, Begin copies
// the new one.
func (l *Learner) Begin(n int) {
	if l.countdown != 0 {
		panic("clicstats: Learner.Begin inside an open lease")
	}
	for !l.state.CompareAndSwap(tapIdle, tapLeased) {
		runtime.Gosched()
	}
	if l.epoch != l.g.epoch.Load() {
		l.g.adopt(l)
	}
	w := uint64(l.cfg.Window)
	start := l.g.requests.Add(uint64(n)) - uint64(n)
	l.countdown, l.left, l.rotating = n, 0, false
	if to := w - start%w; to <= uint64(n) {
		l.countdown, l.left, l.rotating = int(to), n-int(to), true
	}
}

// Priority returns Pr(h) from the table currently in effect.
func (l *Learner) Priority(h hint.ID) float64 {
	if int(h) < len(l.dense) {
		return l.dense[h]
	}
	return 0
}

// Epoch identifies the priority table in effect; it advances at every
// window rotation a lone learner makes, and at every table a tap adopts. A
// cache that cached priorities (in its victim heap) refreshes them when
// the epoch it last synced at is stale.
func (l *Learner) Epoch() uint64 { return l.epoch }

// Windows returns the number of completed statistics windows.
func (l *Learner) Windows() int {
	if l.g != nil {
		return l.g.Windows()
	}
	return l.windows
}

// Priorities returns a copy of the priority table in effect.
func (l *Learner) Priorities() map[hint.ID]float64 {
	if l.g != nil {
		return l.g.Priorities()
	}
	return maps.Clone(l.pr)
}

// WindowStats snapshots the statistics accumulated so far in the current
// window, sorted by descending N: a tap's are the Global's.
func (l *Learner) WindowStats() []HintStat {
	if l.g != nil {
		return l.g.WindowStats()
	}
	l.settle()
	return l.window.hintStats()
}

// TrackedHintSets returns the number of hint sets with statistics in the
// current window (bounded by k in top-k mode): a tap's are the Global's.
func (l *Learner) TrackedHintSets() int {
	if l.g != nil {
		return l.g.TrackedHintSets()
	}
	l.settle()
	return l.window.len()
}
