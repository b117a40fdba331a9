package clicstats

import (
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/hint"
)

// Learner is one cache's statistics learner: a tap (Global.Tap) on a
// Global, shared by every shard of a sharded front or, for a plain cache,
// the Global's only tap (NewPartitioned). It counts in a window of its
// own, reads a priority table of its own, and is not safe for concurrent
// use, exactly like the cache that owns it. The cache calls Arrive, Reref
// and EndRequest, in that order, for every request.
//
// Arrive, EndRequest, Epoch and Priority inline into the cache's request
// path: the common case is a counter bump and a countdown, and everything
// else — a rotation, a lease's end, a hint set new to the window — is
// behind one call. Arrive has no room in the inlining budget for that
// call, so it leaves such an arrival pending, and the next Reref or
// EndRequest counts it first: the events still reach the window in request
// order.
//
// The steady state is allocation-free: the window counters recycle (see
// window), and so does the Global's rotation.
type Learner struct {
	// countdown is the number of requests until EndRequest takes its slow
	// path: the next multiple of W in the lease or, if none, the lease's
	// end (0: no lease open).
	countdown int
	// g is the Global this tap feeds.
	g *Global
	// pending says Arrive left the arrival of pendingHint for the next
	// Reref or EndRequest to count.
	pendingHint hint.ID
	pending     bool
	// window holds this tap's share of the Global's window, which a
	// rotation sums.
	window

	// The priority table: dense is the table in effect indexed by hint ID,
	// what Priority reads, and epoch identifies it; both are copied from
	// the Global (Global.adopt).
	epoch uint64
	dense []float64

	cfg Config

	// The lease: left is the number of requests the lease runs after
	// the countdown runs out; rotating says the countdown ends on a
	// multiple of W rather than at the lease's end. state says who may
	// touch the window (tapIdle and the rest).
	left     int
	state    atomic.Uint32
	rotating bool

	// Learners are allocated one per shard and written on every request:
	// round each up to a cache line so neighbours never share one
	// (TestLearnerLayout checks the arithmetic).
	_ [3]byte
}

// NewPartitioned returns the learner a plain core.Cache learns through: the
// only tap on a Global of its own, leased once for its whole life. It is
// the rotator of every round, so every round takes its whole window. The
// name is historical; it stays because the repository benchmark calls it.
func NewPartitioned(cfg Config) *Learner {
	l := NewGlobal(cfg).Tap()
	l.Begin(math.MaxInt)
	return l
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
// and advancing the epoch, §3.2). It must fall inside a lease.
func (l *Learner) EndRequest() bool {
	l.countdown--
	if l.countdown > 0 && !l.pending {
		return false
	}
	return l.endRequest()
}

// endRequest is EndRequest's slow path. It counts a pending arrival and,
// at the end of the countdown, either closes the Global's next round and
// re-arms for the next multiple of W in the lease, or closes the lease.
func (l *Learner) endRequest() bool {
	l.settle()
	if l.countdown > 0 {
		return false
	}
	if l.countdown < 0 {
		l.countdown = 0
		panic("clicstats: Learner.EndRequest outside a tap's lease")
	}
	rotated := l.rotating
	if rotated {
		l.g.rotate(l)
		if w := l.cfg.Window; w <= l.left {
			l.countdown, l.left = w, l.left-w
			return true
		}
		l.countdown, l.left, l.rotating = l.left, 0, false
	}
	if l.countdown == 0 {
		l.state.Store(tapIdle)
	}
	return rotated
}

// Begin leases the next n > 0 requests of the Global's request numbering
// to this tap; exactly n EndRequests must follow before the next Begin.
// While a rotation or a stats read holds the tap's idle window, Begin
// waits for it. If a round was published since the tap's table was
// copied, Begin copies the new one.
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
// table the tap adopts. A cache that cached priorities (in its victim
// heap) refreshes them when the epoch it last synced at is stale.
func (l *Learner) Epoch() uint64 { return l.epoch }

// Windows returns the number of completed statistics windows: the
// Global's.
func (l *Learner) Windows() int { return l.g.Windows() }

// Priorities returns a copy of the Global's priority table in effect.
func (l *Learner) Priorities() map[hint.ID]float64 { return l.g.Priorities() }

// WindowStats snapshots the statistics this tap has accumulated so far in
// the current window, sorted by descending N. Only the tap's owner may
// call it: a plain cache, whose tap is its Global's only one. A sharded
// front reads the window of all its taps through the Global.
func (l *Learner) WindowStats() []HintStat {
	l.settle()
	return l.window.hintStats()
}

// TrackedHintSets returns the number of hint sets with statistics in this
// tap's current window (bounded by k in top-k mode), on the terms of
// WindowStats.
func (l *Learner) TrackedHintSets() int {
	l.settle()
	return l.window.len()
}
