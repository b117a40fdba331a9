// Package core implements CLIC (CLient-Informed Caching), the paper's
// primary contribution: a generic, adaptive, hint-based replacement policy
// for second-tier storage-server caches.
//
// CLIC assigns each hint set H a caching priority
//
//	Pr(H) = fhit(H) / D(H),    fhit(H) = Nr(H) / N(H)     (Equations 1–2)
//
// where N(H) counts requests with hint set H, Nr(H) counts those requests
// that were followed by a read re-reference of the same page, and D(H) is
// the mean re-reference distance. Statistics are gathered per window of W
// requests and blended across windows with decay r (Equation 3). The cache
// itself plus a bounded outqueue of Noutq recently seen but uncached pages
// provide the "most recent request" records (seq, hint set) needed to
// detect read re-references (§3.1).
//
// Replacement follows Figure 4: a newly requested page is cached only if
// some cached page has strictly lower priority; the victim is the
// minimum-priority page, ties broken by minimum sequence number.
//
// A page has one record, cached or outqueued, never both, and the cache
// keeps it that way physically: one open-addressing page table (table.go)
// whose slots are the 32-byte, pointer-free records themselves, linked by
// table position. A request costs one probe of that table, which lands on
// the record's own line: Access's own, or, inside a Sharded frame, the
// warm pass's (below). A cached record sits in its hint set's group
// list, an uncached one in the outqueue list; eviction and re-admission
// move the record between the two lists by relinking, where it sits.
// Everything keyed by hint ID on the request path — the groups, the
// learner's priorities and tracked counters — is a slice indexed by the ID,
// since IDs are interned densely. The table grows with the records
// actually held, never from the configured capacity. Per cached page that
// is 6 records at the default Noutq: 192 bytes at a load of 8/15 to 4/5,
// 240–360 bytes or some 6–9% of a 4 KB page, where §6.1 charges CLIC 1%
// (sim.ClicCapacity applies the paper's figure, which assumes only a
// sequence number and a hint ID per record, not the links and index an
// O(1) implementation needs).
//
// The statistics machinery itself — window accounting, decay blending,
// the priority table, and the Space-Saving summary that holds each
// window's counters, bounded to Config.TopK hint sets (§5) or, by default,
// exact — lives in internal/clicstats, in one concrete clicstats.Learner
// whose per-request calls inline into Access (for a hint set already
// counted this window, an index read and a counter bump); the cache
// detects re-references, feeds them to its learner, and re-keys its victim
// heap whenever the learner publishes a new priority table (tracked by the
// learner's epoch). The learner is always a tap on a clicstats.Global:
// every shard of a Sharded front has a tap on the front's one shared
// Global, which learns over the full window W from the cache-wide stream,
// and a plain Cache has the only tap on a Global of its own. A tap counts
// in its own window and reads its own copy of the priority table; the
// Global sums the taps' windows once per W requests and takes no lock per
// request or per frame.
//
// A Sharded front owns no goroutine and holds each shard through a
// try-lock: a Producer's batches run as per-shard frames on whichever
// goroutine holds the shard (flat combining; owner.go), and Sharded.Access
// holds the shard for one request. Frames run in groups of 16 requests:
// Cache.warm probes for the group's records and loads them and their list
// neighbours with independent loads, then each serial Access starts from
// the position warm found, probing again only where an earlier request of
// the group moved or made the record. That is where batching buys more
// than amortized synchronization. The steady-state request path is
// allocation-free: the table, the group table and the learner's
// Space-Saving summary are reused in place.
package core

import (
	"fmt"

	"repro/internal/clicstats"
	"repro/internal/hint"
	"repro/internal/policy"
	"repro/internal/trace"
)

// Config parameterises a CLIC cache.
type Config struct {
	// Capacity is the cache size in pages.
	Capacity int
	// Noutq is the number of outqueue entries. Zero selects the paper's
	// setting of 5 entries per cache page (§6.1); NoOutqueue disables the
	// outqueue so re-references are detected only for cached pages.
	Noutq int
	// Window is W, the number of requests per statistics window. Zero
	// selects DefaultWindow.
	Window int
	// R is the exponential decay parameter r in (0, 1]; at 1 (the paper's
	// setting) priorities reflect only the most recent window. Zero selects
	// 1.
	R float64
	// TopK bounds hint-set tracking to the k most frequent hint sets using
	// the adapted Space-Saving algorithm (§5). Zero tracks all hint sets
	// exactly.
	TopK int
	// Engine is read by nothing. It, EngineMode and EngineOwner remain only
	// so that the frozen benchmark (bench/layers.go), which sets it, still
	// compiles; they go with the next declared benchmark revision.
	Engine EngineMode
}

// EngineMode is the inert type of Config.Engine.
type EngineMode int

// EngineOwner is EngineMode's one value and its zero, so Config{} and
// Config{Engine: EngineOwner} are the same configuration.
const EngineOwner EngineMode = 0

// DefaultWindow is the statistics window used when Config.Window is zero.
// The paper uses W = 1e6 on traces of 3M–635M requests; our scaled traces
// are ~10× shorter, so the default window scales likewise.
const DefaultWindow = 100_000

// NoOutqueue, assigned to Config.Noutq, disables the outqueue entirely.
const NoOutqueue = -1

func (cfg Config) withDefaults() Config {
	if cfg.Noutq == 0 {
		cfg.Noutq = 5 * cfg.Capacity
	} else if cfg.Noutq < 0 {
		cfg.Noutq = 0
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.R == 0 {
		cfg.R = 1
	}
	return cfg
}

// learnerConfig maps a resolved cache configuration to its learner's.
func (cfg Config) learnerConfig() clicstats.Config {
	return clicstats.Config{Window: cfg.Window, R: cfg.R, TopK: cfg.TopK}
}

// Cache is a CLIC server cache. It is not safe for concurrent use (wrap it
// in Sharded for that), even when its learner is.
//
// The words Access touches on every request come first and cfg, of which
// it reads only Capacity and Noutq, comes last: the request path then
// spans as few cache lines as it can, and where the hot words fall does not
// depend on the size of Config. With cfg first, one 8-byte field more or
// less in Config moved the benchmark's sim_serial CPU per request by 5–6 %
// on a 2-CPU host.
type Cache struct {
	seq uint64

	// learner owns the hint statistics and the priority table; epoch is
	// the learner epoch the group heap's cached priorities were last
	// synced at.
	learner *clicstats.Learner
	epoch   uint64

	// The record store: one open-addressing table whose slots are the page
	// records (table.go; position 0 is nil). A page has one record, cached
	// or outqueued (§3.1), so a request costs one probe that lands on the
	// record itself; eviction and admission of a remembered page relink the
	// record where it sits.
	ents []pageEntry

	// Cached pages, grouped per hint set: groups is indexed by hint ID
	// (IDs are interned densely), heap orders the non-empty groups.
	groups []group
	heap   []hint.ID
	cached int

	// Outqueue of recently seen, uncached pages (§3.1), capacity cfg.Noutq.
	outHead, outTail uint32
	outSize          int

	// evictions counts cached pages displaced by a higher-priority admit.
	// Plain (the cache is single-owner); Sharded mirrors it into an atomic.
	evictions uint64

	// warmed is the sink of warm's loads; nothing reads it.
	warmed uint64

	// known is where the next Access may find its page's record: set by
	// Sharded's frame loop from warm's probe, 0 (no guess) everywhere else.
	// Access trusts it only if the slot there still holds the page.
	known uint32

	cfg Config
}

var _ policy.Policy = (*Cache)(nil)

// New returns a CLIC cache for the given configuration, learning through
// the only tap on a clicstats.Global of its own. It panics if Capacity is negative or Capacity+Noutq exceeds the
// number of page records a cache can index.
func New(cfg Config) *Cache {
	if cfg.Capacity < 0 {
		panic("core: negative capacity")
	}
	cfg = cfg.withDefaults()
	return newCache(cfg, clicstats.NewPartitioned(cfg.learnerConfig()))
}

// newCache builds a cache around a learner built for it (Sharded hands
// each shard a tap on the front's shared learner). cfg must
// already have defaults applied. Nothing is sized from the configuration:
// the table grows with the records actually held.
func newCache(cfg Config, l *clicstats.Learner) *Cache {
	if n := uint64(cfg.Capacity) + uint64(cfg.Noutq); n > maxRecords {
		panic(fmt.Sprintf("core: Capacity+Noutq = %d page records, more than the %d a cache can index", n, uint64(maxRecords)))
	}
	c := &Cache{
		cfg:     cfg,
		learner: l,
		ents:    make([]pageEntry, 1+minTableSlots),
	}
	return c
}

// Name implements policy.Policy.
func (c *Cache) Name() string { return "CLIC" }

// Len implements policy.Policy.
func (c *Cache) Len() int { return c.cached }

// Capacity implements policy.Policy.
func (c *Cache) Capacity() int { return c.cfg.Capacity }

// Config returns the configuration in effect (with defaults applied).
func (c *Cache) Config() Config { return c.cfg }

// Evictions returns the number of cached pages evicted to admit a
// higher-priority page.
func (c *Cache) Evictions() uint64 { return c.evictions }

// Access implements policy.Policy, processing one request per Figure 4 and
// feeding the hint statistics of §3.1 to the learner.
func (c *Cache) Access(r trace.Request) bool {
	// A tap may have adopted its shared learner's new table since our last
	// request (at the start of a lease); re-key the victim heap before any
	// placement decision reads priorities. The epoch
	// test is spelled out so that it inlines, leaving the call for a
	// rotation.
	if c.learner.Epoch() != c.epoch {
		c.syncPriorities()
	}

	s := c.seq
	c.seq++

	// The request's one table probe: i is the page's record, cached or
	// outqueued, serving both the statistics and the placement decision.
	// A known position that still holds the page is the record — a page
	// has one — so it stands in for the probe; anything else (no guess, a
	// record moved by a grow or a backward shift since warm, a record made
	// since) probes.
	i := c.known
	if i == 0 || !c.ents[i].used || c.ents[i].page != r.Page {
		i = c.find(r.Page)
	}

	// Statistics: count the arrival, and detect a read re-reference using
	// the most-recent-request record.
	c.learner.Arrive(r.Hint)
	cached := false
	if i != 0 {
		e := &c.ents[i]
		cached = e.cached
		if r.Op == trace.Read {
			c.learner.Reref(e.hint, s-e.seq)
		}
	}

	hit := false
	if cached {
		// Figure 4 lines 23–25: refresh the record; the most recent
		// request determines the page's priority from now on.
		hit = r.Op == trace.Read
		c.removeFromGroup(i)
		e := &c.ents[i]
		e.seq, e.hint = s, r.Hint
		c.appendToGroup(i)
	} else {
		c.admit(r.Page, s, r.Hint, i)
	}

	if c.learner.EndRequest() {
		c.syncPriorities()
	}
	return hit
}

// warm probes the table for each of reqs — one group, at most warmGroup
// requests — and pulls the lines that Access will read and write toward
// the CPU, changing nothing Access can observe. It leaves each request's
// record position (0 for none) in pos, for Sharded's frame loop
// (owner.go) to hand to that request's Access as Cache.known; the loads
// themselves are kept in warmed, since Go has no prefetch intrinsic and an
// early load whose result is kept is the idiom.
//
// Two passes. The first walks each page's probe run to its record (or to
// the empty slot that ends the run). The second loads each record's two
// list neighbours: relinking the record (removeFromGroup, outUnlink)
// writes all three lines, and inside Access they would be missed one
// after another. Position 0 is the nil record, so a page without a record
// and a record at the end of its list need no branch — they load line 0.
func (c *Cache) warm(reqs []trace.Request, pos *[warmGroup]uint32) {
	var w uint64
	ents := c.ents
	idx := pos[:len(reqs)]
	for i := range reqs {
		idx[i] = c.find(reqs[i].Page)
	}
	for _, x := range idx {
		e := &ents[x]
		w ^= ents[e.prev].page ^ ents[e.next].page
	}
	c.warmed = w
}

// syncPriorities re-keys the group heap against the learner's current
// priority table if the table changed since the last sync (§4: the heap is
// keyed by priority, so a rotation invalidates its order).
func (c *Cache) syncPriorities() {
	e := c.learner.Epoch()
	if e == c.epoch {
		return
	}
	c.epoch = e
	for _, h := range c.heap {
		c.groups[h].pr = c.learner.Priority(h)
	}
	c.heapInit()
}

// admit handles a request for an uncached page (Figure 4 lines 1–22). oi is
// the page's outqueue entry if it has one (already looked up by Access).
func (c *Cache) admit(page, s uint64, h hint.ID, oi uint32) {
	if c.cached < c.cfg.Capacity {
		c.insert(page, s, h, oi)
		return
	}
	if c.cfg.Capacity > 0 {
		top := &c.groups[c.heap[0]]
		if c.learner.Priority(h) > top.pr {
			v := top.head // minimum seq within the minimum-priority group
			c.removeFromGroup(v)
			c.cached--
			c.evictions++
			// The victim's record enters the outqueue, whose oldest record
			// may leave to make room. That removal can shift oi or be oi:
			// find the incoming page's record again.
			c.outqueueVictim(v)
			c.insert(page, s, h, c.find(page))
			return
		}
	}
	// Do not cache: record the request in the outqueue (lines 19–22).
	c.record(page, s, h, oi)
}

// insert caches a page with the given record. oi is the page's outqueue
// entry if it still has one: the entry migrates into its group where it
// sits in the table.
func (c *Cache) insert(page, s uint64, h hint.ID, oi uint32) {
	if oi != 0 {
		c.outUnlink(oi)
		c.outSize--
	} else {
		oi = c.place(page)
	}
	e := &c.ents[oi]
	e.seq, e.hint = s, h
	c.cached++
	c.appendToGroup(oi)
}
