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
// its own (NewPartitioned). It holds the taps, the round and the priority
// table in effect; it is not itself a Learner and keeps no counters of its
// own. Each cache that shares it owns a tap (Global.Tap), and the tap is
// the only way in.
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
//     per-request path, and always runs it to its end); the last ends the
//     lease with one store (leased → idle). EndRequest outside a lease
//     panics, as Begin inside one does. UntilRotation tells a caller how
//     many requests remain up to the next multiple of W, so it can cut its
//     frames there.
//   - Count. Each tap counts in a window of its own with the configured
//     TopK, so Arrive, Reref and EndRequest are inlined counter bumps: no
//     lock, no shared cache line.
//   - Rotate. At the request a multiple of W falls on, the tap sums its
//     own window and every idle tap's — N, Nr and ΣD per hint set — into
//     one reused round and publishes it. An idle tap it takes with one CAS
//     on the tap's state word (idle → held), reads, resets and releases. A
//     tap mid-lease it skips: that tap's window, its counts since it was
//     last taken, goes into the first round that finds it idle
//     (DeferredWindows). No goroutine ever waits on another shard's lease;
//     Begin waits only while a rotation or a stats read holds the tap's
//     idle window.
//   - Read. Each tap reads a priority table of its own, a dense slice and
//     an epoch, so Priority and Epoch are inlined loads. A tap copies the
//     Global's table, pr, at Begin when the Global's epoch moved (one
//     atomic load per lease, and mu once per round), and at its own
//     rotation. Within a lease its table therefore never moves under its
//     cache except at the cache's own EndRequest, and caches re-key their
//     victim heaps lazily, at their next request, by observing the epoch
//     change.
//
// Rotation allocates nothing in the steady state: it refills one tally,
// and Equation 3 runs in place in the one table the taps copy.
//
// Locks. There are two mutexes, taken in the order rotateMu, then mu.
// rotateMu guards the tap list and the round, and serializes publication:
// it is taken once per rotation and once per stats read, never per request
// or per frame, nor at a lease's end. mu guards only the table: a
// publication blends its round into the table under it, and a tap copies
// the table under it, once per round it adopts. So a Begin that adopts may
// wait for one blend pass over the hint IDs, but never for the sum of the
// taps' windows.
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
// the rotation count stays exact, but three things are relaxed. A tap
// mid-lease at a rotation keeps its window for the next round that finds
// it idle. A leased tap adopts a round another tap published only at its
// next lease, so it runs at most one frame on the older table. And
// WindowStats and TrackedHintSets, which read the idle taps, lag by at
// most one frame per busy shard — the same caveat core.Sharded.Stats
// documents for its counters.
type Global struct {
	cfg Config

	// epoch is the number of the round whose table is in effect: read at
	// every lease, written once per round.
	epoch atomic.Uint64
	// deferred counts the windows rotations found mid-lease and left to a
	// later round.
	deferred atomic.Uint64

	// rotateMu guards taps and round, and serializes publication.
	rotateMu sync.Mutex
	// taps are every tap of this learner, in the order Tap made them.
	taps []*Learner
	// round sums the windows a rotation takes; it is reset at each one.
	round tally
	// publish, when set, receives each round's summed counters and its
	// number as the round publishes: the tests' view of what each round
	// held, in storage the next rotation reuses. Called under rotateMu and
	// no other lock.
	publish func(round uint64, counters []WindowCounter)

	// mu guards pr and has (see "Locks").
	mu sync.Mutex
	// pr is the priority table in effect (Equation 3) indexed by hint ID,
	// which taps copy; has marks the hint sets that hold a priority, so a
	// pruned entry and one never learned both read 0.
	pr  []float64
	has []bool

	// requests numbers the requests leased so far. Every frame of every
	// shard adds to it, so it is padded to a cache line of its own wherever
	// the struct lands, away from the epoch above that every lease reads.
	_        [cacheLine - 8]byte
	requests atomic.Uint64
	_        [cacheLine - 8]byte
}

// A tap's state word says who may touch its window. Only the tap's owner
// moves it out of idle into leased, and back; a rotation or a stats read,
// under rotateMu, moves idle to held and back.
const (
	tapIdle   uint32 = iota // no lease: the window is whole, and a rotation takes it
	tapLeased               // a lease is in flight: only the owner touches the window
	tapHeld                 // idle, and a rotation or a stats read is reading the window
)

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

// DeferredWindows returns the number of windows rotations have found
// mid-lease so far and left to the next round that finds their tap idle.
func (g *Global) DeferredWindows() uint64 { return g.deferred.Load() }

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

// rotate closes the next round on behalf of tap l, which is leased and at
// the request a multiple of W falls on: it sums l's window and every idle
// tap's, leaves every other tap's window, all leased, to a later round,
// publishes the sum, and has l adopt the new table.
func (g *Global) rotate(l *Learner) {
	g.rotateMu.Lock()
	defer g.rotateMu.Unlock()
	r := &g.round
	r.reset()
	r.take(&l.window)
	idle := g.eachIdle(r.take)
	g.deferred.Add(uint64(len(g.taps) - 1 - idle))
	g.publishRound(r, g.epoch.Load()+1)
	g.adopt(l)
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

// publishRound closes one round: it blends the round's sums r into the
// priority table in place (Equation 3) and republishes the table with the
// round's number, epoch. The caller holds rotateMu.
func (g *Global) publishRound(r *tally, epoch uint64) {
	if g.publish != nil {
		g.publish(epoch, r.counters)
	}

	g.mu.Lock()
	defer g.mu.Unlock()
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
	g.epoch.Store(epoch)
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
// the tap meanwhile, and returns how many it called fn for. A leased tap's
// window is its owner's until the lease ends, so a read skips it. The
// caller holds rotateMu.
func (g *Global) eachIdle(fn func(*window)) (idle int) {
	for _, t := range g.taps {
		if t.state.CompareAndSwap(tapIdle, tapHeld) {
			fn(&t.window)
			t.state.Store(tapIdle)
			idle++
		}
	}
	return idle
}

// WindowStats snapshots the current window's counters, summed over the
// idle taps, sorted by descending N. Counts of leases in flight are not in
// it.
func (g *Global) WindowStats() []HintStat {
	var t tally
	g.rotateMu.Lock()
	g.eachIdle(func(w *window) { w.each(t.add) })
	g.rotateMu.Unlock()
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
	g.rotateMu.Lock()
	g.eachIdle(func(w *window) { n += w.len() })
	g.rotateMu.Unlock()
	return n
}
