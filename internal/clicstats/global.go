package clicstats

import (
	"sync"
	"sync/atomic"

	"repro/internal/hint"
)

// Global is the shared learner: every shard of a sharded cache feeds it and
// reads it, so the priority model Pr(H) is learned from the cache-wide
// request stream over the full window W while page placement stays
// hash-partitioned. A plain cache's learner is the only tap on a Global of
// its own (NewPartitioned). It holds the taps, the rounds still open and
// the priority table in effect; it is not itself a Learner and keeps no
// counters of its own. Each cache that shares it owns a tap (Global.Tap),
// and the tap is the only way in.
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
//     a lease panics, as Begin inside one does. UntilRotation tells a
//     caller how many requests remain up to the next multiple of W, so it
//     can cut its frames there.
//   - Count. Each tap counts in a window of its own with the configured
//     TopK, so Arrive, Reref and EndRequest are inlined counter bumps: no
//     lock, no shared cache line.
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
//   - Read. Each tap reads a priority table of its own, a dense slice and
//     an epoch, so Priority and Epoch are inlined loads. A tap copies the
//     Global's table, pr, at Begin when the Global's epoch moved (one
//     atomic load per lease, and mu once per round), and at its own
//     rotation. Within a lease its table therefore never moves under its
//     cache except at the cache's own EndRequest, and caches re-key their
//     victim heaps lazily, at their next request, by observing the epoch
//     change.
//
// Rotation allocates nothing in the steady state: published rounds are
// recycled, the pending peer counters are summed into the round being
// published, and Equation 3 runs in place in the one table the taps copy.
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
// Locks. There are two mutexes, taken in the order rotateMu, then mu.
// rotateMu guards the tap list and the open rounds, and serializes
// publication: it is taken once per rotation, once per late hand-in and
// once per stats read, never per request or per frame. mu guards the
// table and the pending peer counters: a publication sums pending into its
// round and blends the round into the table under it, and a tap copies the
// table under it, once per round it adopts. So a Begin that adopts may
// wait for one blend pass over the hint IDs, but never for the sum of the
// taps' windows. The publish hook runs under rotateMu only. That matters in a
// cluster whose exchanger delivers at publish time: node A's publication
// calls Absorb on nodes B and C while they may be publishing into A, and
// the cycle is harmless only because Absorb takes mu and nothing else.
//
// What is exact and what is relaxed. Driven by one goroutine — any number
// of taps, leases of any length — no tap but the rotator is ever leased,
// so every round takes every window and publishes at its own request, and
// every tap adopts it at its next lease, before any of its requests reads
// a priority. In exact mode that is bit-identical to one window fed the
// same events, at every EndRequest: the sums commute and the distances
// are integers. In top-k mode it is bit-identical with one tap; with
// several, each tap is a Space-Saving summary of k counters over its own
// shard's requests, each re-reference is credited against its own tap's
// window, and the round is their sum — a mergeable summary (Agarwal et
// al., PODS 2012): each N(H) is at most the exact count, and every hint
// set above W/k requests in the round is present. Under concurrent taps
// the rotation count stays exact, but three things are relaxed. A lease in
// flight pays its whole window, requests past the boundary included, into
// the round it owes. A leased tap adopts a round another tap published
// only at its next lease, so it runs at most one frame on the older table.
// And WindowStats and TrackedHintSets, which read the idle taps, lag by at
// most one frame per busy shard — the same caveat core.Sharded.Stats
// documents for its counters.
type Global struct {
	cfg Config

	// epoch is the number of the round whose table is in effect: read at
	// every lease, written once per round.
	epoch atomic.Uint64
	// late counts late hand-ins: payments a rotation left owed by a leased
	// tap.
	late atomic.Uint64

	// rotateMu guards taps, open, opened and free, and serializes
	// publication.
	rotateMu sync.Mutex
	// taps are every tap of this learner, in the order Tap made them.
	taps []*Learner
	// open are the rounds taken but not yet published, oldest first;
	// opened numbers them. free are published rounds kept for reuse.
	open   []*round
	opened uint64
	free   []*round
	// publish, when set, receives each round's local counters and its
	// number. Set once, before traffic; called under rotateMu and no other
	// lock.
	publish func(round uint64, local []WindowCounter)

	// mu guards pr, has and pending (see "Locks").
	mu sync.Mutex
	// pr is the priority table in effect (Equation 3) indexed by hint ID,
	// which taps copy; has marks the hint sets that hold a priority, so a
	// pruned entry and one never learned both read 0.
	pr  []float64
	has []bool
	// pending holds the peer counters absorbed since the last publication.
	pending  tally
	absorbed atomic.Uint64

	// requests numbers the requests leased so far. Every frame of every
	// shard adds to it, so it is padded to a cache line of its own wherever
	// the struct lands, away from the epoch above that every lease reads.
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
	// at is indexed by hint ID, as hint IDs are dense: 1 + the position in
	// counters of the hint set's sums, or 0 for none.
	at []int32
}

// find returns the sums for hint set h, or nil.
func (t *tally) find(h hint.ID) *WindowCounter {
	if int(h) < len(t.at) && t.at[h] != 0 {
		return &t.counters[t.at[h]-1]
	}
	return nil
}

// add sums one hint set's counters in.
func (t *tally) add(wc WindowCounter) {
	if c := t.find(wc.Hint); c != nil {
		c.N += wc.N
		c.Nr += wc.Nr
		c.Dsum += wc.Dsum
		return
	}
	for int(wc.Hint) >= len(t.at) {
		t.at = append(t.at, 0)
	}
	t.counters = append(t.counters, wc)
	t.at[wc.Hint] = int32(len(t.counters))
}

// take sums a window in and resets it.
func (t *tally) take(w *window) {
	w.each(t.add)
	w.reset()
}

// reset empties the tally, keeping its storage.
func (t *tally) reset() {
	for _, c := range t.counters {
		t.at[c.Hint] = 0
	}
	t.counters = t.counters[:0]
}

// cacheLine is the coherence granule Global's hot words are padded to.
const cacheLine = 64

// NewGlobal returns a shared learner for the configuration.
func NewGlobal(cfg Config) *Global {
	cfg.validate()
	return &Global{cfg: cfg}
}

// SetPublish installs the hook that receives each round's local counters
// and its number. It must be called before the learner sees traffic. The
// hook runs inside a publication, so it must not feed a tap of this
// learner; calling Absorb is safe. The counters are the learner's own
// until the hook returns: a hook that keeps them copies them.
func (g *Global) SetPublish(fn func(round uint64, local []WindowCounter)) {
	g.publish = fn
}

// Absorb adds one peer summary's window counters to the pending pool; they
// take effect at this learner's next publication. Safe for concurrent use
// with everything else, including a publication in progress.
func (g *Global) Absorb(counters []WindowCounter) {
	g.mu.Lock()
	for _, wc := range counters {
		g.pending.add(wc)
	}
	g.mu.Unlock()
	g.absorbed.Add(1)
}

// Absorbed returns the number of peer summaries absorbed so far.
func (g *Global) Absorbed() uint64 { return g.absorbed.Load() }

// PendingHintSets returns the number of hint sets with peer counters
// waiting for the next publication.
func (g *Global) PendingHintSets() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pending.counters)
}

// LateHandins returns the number of late hand-ins so far: payments a
// rotation left owed by a tap whose lease was in flight, each of which held
// its round open until the tap's lease ended.
func (g *Global) LateHandins() uint64 { return g.late.Load() }

// UntilRotation returns how many requests the next leases may take before
// the next rotation: the distance, in the request numbering, to the next
// multiple of W, that request included. A caller driving one stream cuts
// its frames there, so that each rotation falls on a frame's last request.
// Under concurrent callers the answer may be stale by the time a lease
// draws its numbers, which moves where that caller cuts and nothing else.
func (g *Global) UntilRotation() int {
	w := uint64(g.cfg.Window)
	return int(w - g.requests.Load()%w)
}

// rotate opens the next round on behalf of tap l, which is leased and at
// the request a multiple of W falls on: it sums in l's window and every
// idle tap's, marks every other leased tap owed, publishes whatever rounds
// that completes, and has l adopt the newest table. If l itself owes an
// earlier round it hands in there first, so its window goes to the oldest
// round it can.
func (g *Global) rotate(l *Learner) {
	g.rotateMu.Lock()
	defer g.rotateMu.Unlock()
	if l.owes != nil {
		g.handIn(l)
		l.state.Store(tapLeased)
	}
	g.opened++
	var r *round
	if n := len(g.free); n > 0 {
		r, g.free = g.free[n-1], g.free[:n-1]
		r.reset()
	} else {
		r = new(round)
	}
	r.seq = g.opened
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
	g.adopt(l)
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

// adopt copies the table in effect into tap l, if l's is older. It runs on
// l's owner, which alone reads l's table.
func (g *Global) adopt(l *Learner) {
	g.mu.Lock()
	if e := g.epoch.Load(); l.epoch != e {
		l.dense = append(l.dense[:0], g.pr...)
		l.epoch = e
	}
	g.mu.Unlock()
}

// publishReady publishes, oldest first, every open round that owes nothing
// and has no open predecessor, and keeps the published rounds for reuse.
// The caller holds rotateMu.
func (g *Global) publishReady() {
	done := 0
	for done < len(g.open) && g.open[done].owing == 0 {
		g.publishRound(g.open[done])
		g.free = append(g.free, g.open[done])
		done++
	}
	n := copy(g.open, g.open[done:])
	clear(g.open[n:])
	g.open = g.open[:n]
}

// publishRound closes one round: it publishes the round's counters, sums
// the pending peer counters into them, blends the round's estimates into
// the priority table in place (Equation 3), and republishes the table with
// the round's number as its epoch. The caller holds rotateMu.
func (g *Global) publishRound(r *round) {
	if g.publish != nil {
		g.publish(r.seq, r.counters)
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.pending.counters {
		r.add(p)
	}
	g.pending.reset()

	// Equation 3: a hint set the round saw becomes r·p̂r + (1−r)·old; one
	// it did not see decays by (1−r) and is dropped once negligible.
	rr := g.cfg.R
	for h, held := range g.has {
		if !held || r.find(hint.ID(h)) != nil {
			continue
		}
		if g.pr[h] *= 1 - rr; g.pr[h] < eps {
			g.pr[h], g.has[h] = 0, false
		}
	}
	for _, wc := range r.counters {
		for int(wc.Hint) >= len(g.pr) {
			g.pr, g.has = append(g.pr, 0), append(g.has, false)
		}
		g.pr[wc.Hint] = rr*WindowPriority(wc.N, wc.Nr, wc.Dsum) + (1-rr)*g.pr[wc.Hint]
		g.has[wc.Hint] = true
	}
	g.epoch.Store(r.seq)
}

// Windows returns the number of published rounds: completed statistics
// windows. It is also the epoch of the table in effect.
func (g *Global) Windows() int { return int(g.epoch.Load()) }

// Priorities returns a copy of the priority table in effect.
func (g *Global) Priorities() map[hint.ID]float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[hint.ID]float64)
	for h, held := range g.has {
		if held {
			out[hint.ID(h)] = g.pr[h]
		}
	}
	return out
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
// counts once per tap (each tap is bounded by k in top-k mode).
func (g *Global) TrackedHintSets() int {
	n := 0
	g.eachIdle(func(w *window) { n += w.len() })
	return n
}
