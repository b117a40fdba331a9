package clicstats

import (
	"maps"

	"repro/internal/hint"
)

// Learner is one cache's statistics learner, in one of the two scopes the
// package comment describes: lone (NewPartitioned), with its own window and
// priority table, or a tap (Global.Tap) on a shared Global, whose read side
// is the Global's. Either way it is not safe for concurrent use, exactly
// like the cache that owns it. The cache calls Arrive, Reref and EndRequest,
// in that order, for every request.
//
// Arrive, EndRequest, Epoch and Priority inline into the cache's request
// path: a lone learner's common case is a counter bump and a countdown, and everything else — a rotation, a tap's buffer and lease, a
// hint set new to the window — is behind one call. Arrive has no room in
// the inlining budget for that call, so it leaves such an arrival pending,
// and the next Reref or EndRequest counts it first: the events still reach
// the window in request order.
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
	// window holds a lone learner's counters. A tap's stays empty, so Arrive
	// leaves every tap arrival pending, bound for the buffer.
	window

	// A lone learner's priority table: pr holds the priorities in effect
	// during the current window, computed at the last window boundary
	// (Equation 3); dense is the same table indexed by hint ID, republished
	// after each blend, and is what Priority reads. epoch advances and
	// windows counts at every rotation. fresh is the scratch estimates map
	// handed to blend, cleared (not reallocated) after use.
	epoch   uint64
	dense   []float64
	pr      map[hint.ID]float64
	fresh   map[hint.ID]float64
	windows int

	cfg Config

	// A tap's lease: events buffers arrivals and re-references since the
	// last flush, in request order; left is the number of requests the
	// lease owes after the countdown runs out; rotating says the countdown
	// ends on a multiple of W rather than at the lease's end.
	events   []tapEvent
	left     int
	rotating bool

	// Learners are allocated one per shard and written on every request:
	// round each up to a cache line so neighbours never share one
	// (TestLearnerLayout checks the arithmetic).
	_ [cacheLine - 41]byte
}

// tapEvent is one buffered Arrive (reref false) or Reref.
type tapEvent struct {
	dist  uint64
	h     hint.ID
	reref bool
}

// NewPartitioned returns a lone learner for the configuration. It is named
// for partitioned learning, where every shard of a sharded cache has one.
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
func (g *Global) Tap() *Learner { return &Learner{g: g, cfg: g.cfg} }

// Arrive records one request carrying hint set h (N(H) += 1). Only a lone
// learner's hint sets already tracked this window are counted here; the
// rest is left pending (see Learner).
func (l *Learner) Arrive(h hint.ID) {
	if slot := l.sum.Slot(h); slot != 0 {
		l.sum.Bump(slot)
		return
	}
	l.pendingHint, l.pending = h, true
}

// settle counts a pending arrival: a tap buffers it, a lone learner counts
// it in its window.
func (l *Learner) settle() {
	if !l.pending {
		return
	}
	l.pending = false
	if l.g != nil {
		l.events = append(l.events, tapEvent{h: l.pendingHint})
		return
	}
	l.window.Arrive(l.pendingHint)
}

// Reref records that a request with hint set h was followed by a read
// re-reference at the given distance (Nr(H) += 1, D-sum += dist), by the
// rule window.Reref states.
func (l *Learner) Reref(h hint.ID, dist uint64) {
	l.settle()
	if l.g != nil {
		l.events = append(l.events, tapEvent{h: h, dist: dist, reref: true})
		return
	}
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
// flushes its buffer into the shared window and then either rotates the
// Global and re-arms for the next multiple of W in its lease, or closes
// the lease.
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
	l.flush()
	if !l.rotating {
		return false
	}
	l.g.rotate()
	if w := l.cfg.Window; w <= l.left {
		l.countdown, l.left = w, l.left-w
	} else {
		l.countdown, l.left, l.rotating = l.left, 0, false
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

// Begin leases the next n requests of g's request numbering to this tap;
// exactly n EndRequests must follow before the next Begin.
func (l *Learner) Begin(n int) {
	if l.countdown != 0 {
		panic("clicstats: Learner.Begin inside an open lease")
	}
	w := uint64(l.cfg.Window)
	start := l.g.requests.Add(uint64(n)) - uint64(n)
	l.countdown, l.left, l.rotating = n, 0, false
	if to := w - start%w; to <= uint64(n) {
		l.countdown, l.left, l.rotating = int(to), n-int(to), true
	}
}

// flush replays a tap's buffered events, in order, into the shared window.
func (l *Learner) flush() {
	if len(l.events) == 0 {
		return
	}
	g := l.g
	g.mu.Lock()
	for i := range l.events {
		if ev := &l.events[i]; ev.reref {
			g.win.Reref(ev.h, ev.dist)
		} else {
			g.win.Arrive(ev.h)
		}
	}
	g.mu.Unlock()
	l.events = l.events[:0]
}

// Priority returns Pr(h) from the table currently in effect.
func (l *Learner) Priority(h hint.ID) float64 {
	dense := l.dense
	if l.g != nil {
		dense = l.g.table.Load().dense
	}
	if int(h) < len(dense) {
		return dense[h]
	}
	return 0
}

// Epoch identifies the priority table in effect; it advances by one at
// every window rotation. A cache that cached priorities (in its victim
// heap) refreshes them when the epoch it last synced at is stale.
func (l *Learner) Epoch() uint64 {
	if l.g != nil {
		return l.g.table.Load().epoch
	}
	return l.epoch
}

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
// window, sorted by descending N: a tap's are the shared window's.
func (l *Learner) WindowStats() []HintStat {
	l.settle()
	if l.g != nil {
		return l.g.WindowStats()
	}
	return l.window.hintStats()
}

// TrackedHintSets returns the number of hint sets with statistics in the
// current window (bounded by k in top-k mode): a tap's are the shared
// window's.
func (l *Learner) TrackedHintSets() int {
	l.settle()
	if l.g != nil {
		return l.g.TrackedHintSets()
	}
	return l.window.len()
}
