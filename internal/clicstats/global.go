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
// It holds the taps, the rounds still open and one published priority
// table; it is not itself a Learner and keeps no counters of its own. Each
// cache that shares it owns a tap (Global.Tap: a Learner in tap scope), and
// the tap is the only way in.
//
// Tap protocol. A tap belongs to one cache and is driven by whichever one
// goroutine drives that cache; any number of taps may run concurrently.
//
//   - Lease. Begin(n) opens a frame of n requests: one CAS on the tap's
//     state word (idle → leased) and one atomic add to requests, which
//     leases the frame the request numbers (end-n, end]. One division then
//     tells the tap whether a multiple of W falls inside the lease and at
//     which of its requests, and arms its countdown for that request or, if
//     none, for the lease's last. Request numbers are handed out once, so
//     every multiple of W lies in exactly one lease and exactly one
//     rotation happens per W requests, however many shards feed the
//     learner. A lease is a promise: Begin(n) must be followed by exactly n
//     EndRequests (core.Sharded leases a whole frame, or one request on its
//     per-request path, and always runs it to its end). EndRequest outside
//     a lease panics, as Begin inside one does.
//   - Count. Each tap counts in a window of its own, the lone learner's
//     type with the configured TopK, so Arrive, Reref and EndRequest are a
//     lone learner's inlined counter bumps: no lock, no shared cache line.
//   - Rotate. At the request a multiple of W falls on, the tap opens the
//     next round and sums into it every tap's window — N, Nr and ΣD per
//     hint set, the arithmetic Absorb applies to peer counters. Its own
//     window it reads directly. An idle tap it takes with one CAS on the
//     tap's state word (idle → held), reads, resets and releases. A tap
//     with a lease in flight it marks owed instead of waiting for it.
//   - Hand-in. A tap marked owed pays its window into the round it owes at
//     its lease's end (or at its own next rotation, if that comes first),
//     and the last payment publishes the round. Rounds publish in the order
//     they were opened, so one whose payments are in waits for its
//     predecessors. No goroutine ever waits on another shard's lease; Begin
//     waits only while a rotation or a stats read holds the tap's idle
//     window.
//   - Read. Priority and Epoch are wait-free: the priority table is
//     immutable behind an atomic pointer, republished once per round, and
//     carries its own dense hint-ID-indexed copy. Caches re-key their victim
//     heaps lazily, at their next request, by observing the epoch change.
//
// Cluster learning. In a cluster of cache nodes each node's Global also
// learns from its peers' streams. When a round publishes it hands the
// round's summed counters, with the round number (the epoch it publishes),
// to the hook set by SetPublish, so an exchanger can ship them to the peers
// as wire Summary frames. A peer's counters come back through Absorb and
// wait in a pending pool; the next round to publish sums them into the
// local counters before Equation 2, followed by the ordinary Equation 3
// blend. Absorbed counters are thus one window stale, which the blend
// tolerates like any window-to-window drift. Only local counters are
// published, never absorbed ones, so a summary cannot echo back to the
// node that sent it. With nothing absorbed a round learns from the local
// windows alone.
//
// Locks. rotateMu guards the tap list and the open rounds, and serializes
// publication: it is taken once per rotation, once per late hand-in and
// once per stats read, never per request or per frame. pendingMu guards
// pending. The order is rotateMu, then pendingMu, and the publish hook runs
// under rotateMu only. That matters in a cluster whose exchanger delivers
// at publish time: node A's publication calls Absorb on nodes B and C while
// they may be publishing into A, and the cycle is harmless only because
// Absorb takes pendingMu and nothing else.
//
// What is exact and what is relaxed. Driven by one goroutine — any number
// of taps, leases of any length — no tap but the rotator is ever leased,
// so every round takes every window and publishes at its own request. In
// exact mode that is bit-identical to a lone Learner fed the same events,
// at every EndRequest: the sums commute and the distances are integers.
// In top-k mode it is bit-identical with one tap; with several, each tap
// is a Space-Saving summary of k counters over its own shard's requests,
// each re-reference is credited against its own tap's window, and the
// round is their sum — a mergeable summary (Agarwal et al., PODS 2012):
// each N(H) is at most the exact count, and every hint set above W/k
// requests in the round is present. Under concurrent taps the rotation
// count stays exact, but a lease in flight pays its whole window, requests
// past the boundary included, into the round it owes; WindowStats and
// TrackedHintSets, which read the idle taps, lag by at most one frame per
// busy shard — the same caveat core.Sharded.Stats documents for its
// counters.
type Global struct {
	cfg Config

	// table is the immutable priority table + epoch in effect: read by
	// every request, written once per round.
	table   atomic.Pointer[globalTable]
	windows atomic.Int64
	// late counts late hand-ins: payments a rotation left owed by a leased
	// tap.
	late atomic.Uint64

	// rotateMu guards taps, open and opened, and serializes publication.
	rotateMu sync.Mutex
	// taps are every tap of this learner, in the order Tap made them.
	taps []*Learner
	// open are the rounds taken but not yet published, oldest first;
	// opened numbers them.
	open   []*round
	opened uint64
	// publish, when set, receives each round's local counters and its
	// number. Set once, before traffic; called under rotateMu and no other
	// lock.
	publish func(round uint64, local []WindowCounter)

	// pendingMu guards pending, the peer counters absorbed since the last
	// publication, and nothing else (see "Locks").
	pendingMu sync.Mutex
	pending   tally
	absorbed  atomic.Uint64

	// requests numbers the requests leased so far. Every frame of every
	// shard adds to it, so it is padded to a cache line of its own wherever
	// the struct lands, away from the table pointer above that every
	// request reads.
	_        [cacheLine - 8]byte
	requests atomic.Uint64
	_        [cacheLine - 8]byte
}

// A tap's state word says who may touch its window. Only the tap's owner
// moves it out of idle into leased, and back; a rotation or a stats read,
// under rotateMu, moves idle to held and back, or leased to owed; the
// owner's hand-in, under rotateMu, moves owed back to leased or to idle.
const (
	tapIdle   uint32 = iota // no lease: the window is whole, and a rotation takes it
	tapLeased               // a lease is in flight: only the owner touches the window
	tapOwed                 // leased, and the window is owed to an open round
	tapHeld                 // idle, and a rotation or a stats read is reading the window
)

// round is one window's counters, summed over the taps, while payments are
// still owed to it.
type round struct {
	tally
	seq   uint64 // its number: the epoch it publishes
	owing int    // leased taps that have yet to hand in
}

// tally sums window counters — N, Nr and ΣD per hint set — in the order
// hint sets are first met, so a tally of one window lists it in that
// window's own order.
type tally struct {
	counters []WindowCounter
	index    map[hint.ID]int
}

// add sums one hint set's counters in.
func (t *tally) add(wc WindowCounter) {
	if i, ok := t.index[wc.Hint]; ok {
		c := &t.counters[i]
		c.N += wc.N
		c.Nr += wc.Nr
		c.Dsum += wc.Dsum
		return
	}
	if t.index == nil {
		t.index = make(map[hint.ID]int)
	}
	t.index[wc.Hint] = len(t.counters)
	t.counters = append(t.counters, wc)
}

// take sums a window in and resets it.
func (t *tally) take(w *window) {
	w.each(t.add)
	w.reset()
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
	g := &Global{cfg: cfg}
	g.table.Store(&globalTable{pr: map[hint.ID]float64{}})
	return g
}

// SetPublish installs the hook that receives each round's local counters
// and its number. It must be called before the learner sees traffic. The
// hook runs inside a publication, so it must not feed a tap of this
// learner; calling Absorb is safe.
func (g *Global) SetPublish(fn func(round uint64, local []WindowCounter)) {
	g.publish = fn
}

// Absorb adds one peer summary's window counters to the pending pool; they
// take effect at this learner's next publication. Safe for concurrent use
// with everything else, including a publication in progress.
func (g *Global) Absorb(counters []WindowCounter) {
	g.pendingMu.Lock()
	for _, wc := range counters {
		g.pending.add(wc)
	}
	g.pendingMu.Unlock()
	g.absorbed.Add(1)
}

// Absorbed returns the number of peer summaries absorbed so far.
func (g *Global) Absorbed() uint64 { return g.absorbed.Load() }

// PendingHintSets returns the number of hint sets with peer counters
// waiting for the next publication.
func (g *Global) PendingHintSets() int {
	g.pendingMu.Lock()
	defer g.pendingMu.Unlock()
	return len(g.pending.counters)
}

// LateHandins returns the number of late hand-ins so far: payments a
// rotation left owed by a tap whose lease was in flight, each of which held
// its round open until the tap's lease ended.
func (g *Global) LateHandins() uint64 { return g.late.Load() }

// rotate opens the next round on behalf of tap l, which is leased and at
// the request a multiple of W falls on: it sums in l's window and every
// idle tap's, marks every other leased tap owed, and publishes whatever
// rounds that completes. If l itself owes an earlier round it hands in
// there first, so its window goes to the oldest round it can.
func (g *Global) rotate(l *Learner) {
	g.rotateMu.Lock()
	defer g.rotateMu.Unlock()
	if l.owes != nil {
		g.handIn(l)
		l.state.Store(tapLeased)
	}
	g.opened++
	r := &round{seq: g.opened}
	for _, t := range g.taps {
		switch {
		case t == l:
			r.take(&t.window)
		case t.state.CompareAndSwap(tapIdle, tapHeld):
			r.take(&t.window)
			t.state.Store(tapIdle)
		case t.state.CompareAndSwap(tapLeased, tapOwed):
			t.owes = r
			r.owing++
			g.late.Add(1)
		}
		// Otherwise t owes an earlier round and hands in there, or its
		// lease ended between the two CASes and its window waits for the
		// next round. No tap is held: only holders of rotateMu hold one.
	}
	g.open = append(g.open, r)
	g.publishReady()
}

// release ends tap l's lease: an idle tap's window waits for the next
// rotation, and an owed one is handed in now.
func (g *Global) release(l *Learner) {
	if l.state.CompareAndSwap(tapLeased, tapIdle) {
		return
	}
	g.rotateMu.Lock()
	defer g.rotateMu.Unlock()
	g.handIn(l)
	l.state.Store(tapIdle)
	g.publishReady()
}

// handIn pays owed tap l's window into the round it owes. The caller holds
// rotateMu and sets l's state.
func (g *Global) handIn(l *Learner) {
	r := l.owes
	l.owes = nil
	r.take(&l.window)
	r.owing--
}

// publishReady publishes, oldest first, every open round that owes nothing
// and has no open predecessor. The caller holds rotateMu.
func (g *Global) publishReady() {
	for len(g.open) > 0 && g.open[0].owing == 0 {
		g.publishRound(g.open[0])
		g.open[0] = nil
		g.open = g.open[1:]
	}
}

// publishRound closes one round: it publishes the round's counters, sums
// in the pending peer counters, blends the fresh estimates into a copy of
// the priority table (Equation 3), and republishes the table with the
// round's number as its epoch. The caller holds rotateMu.
func (g *Global) publishRound(r *round) {
	local := r.counters
	if g.publish != nil {
		g.publish(r.seq, local)
	}

	g.pendingMu.Lock()
	pending := g.pending
	g.pending = tally{}
	g.pendingMu.Unlock()

	fresh := make(map[hint.ID]float64, len(local)+len(pending.counters))
	for _, wc := range local {
		if i, ok := pending.index[wc.Hint]; ok {
			p := &pending.counters[i]
			wc.N += p.N
			wc.Nr += p.Nr
			wc.Dsum += p.Dsum
		}
		fresh[wc.Hint] = WindowPriority(wc.N, wc.Nr, wc.Dsum)
	}
	// Hint sets only peers saw this window.
	for _, p := range pending.counters {
		if _, seen := fresh[p.Hint]; !seen {
			fresh[p.Hint] = WindowPriority(p.N, p.Nr, p.Dsum)
		}
	}

	old := g.table.Load()
	pr := make(map[hint.ID]float64, len(old.pr)+len(fresh))
	for h, v := range old.pr {
		pr[h] = v
	}
	blend(pr, fresh, g.cfg.R)
	g.table.Store(&globalTable{pr: pr, dense: densify(nil, pr), epoch: r.seq})
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

// Windows returns the number of published rounds: completed statistics
// windows.
func (g *Global) Windows() int { return int(g.windows.Load()) }

// Priorities returns a copy of the priority table in effect.
func (g *Global) Priorities() map[hint.ID]float64 {
	return maps.Clone(g.table.Load().pr)
}

// eachIdle calls fn with the window of every tap without a lease, holding
// the tap meanwhile. A leased tap's window is its owner's until the lease
// ends, so a read skips it.
func (g *Global) eachIdle(fn func(*window)) {
	g.rotateMu.Lock()
	defer g.rotateMu.Unlock()
	for _, t := range g.taps {
		if t.state.CompareAndSwap(tapIdle, tapHeld) {
			fn(&t.window)
			t.state.Store(tapIdle)
		}
	}
}

// WindowStats snapshots the current window's counters, summed over the
// idle taps, sorted by descending N. Counts of leases in flight are not in
// it.
func (g *Global) WindowStats() []HintStat {
	var t tally
	g.eachIdle(func(w *window) { w.each(t.add) })
	var out []HintStat
	for _, wc := range t.counters {
		out = append(out, newHintStat(wc.Hint, wc.N, wc.Nr, wc.Dsum))
	}
	SortHintStats(out)
	return out
}

// TrackedHintSets returns the number of hint sets with statistics in the
// idle taps' windows, summed over the taps: a hint set several shards saw
// counts once per tap, as in partitioned mode (each tap is bounded by k in
// top-k mode).
func (g *Global) TrackedHintSets() int {
	n := 0
	g.eachIdle(func(w *window) { n += w.len() })
	return n
}
