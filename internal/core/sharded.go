package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/clicstats"
	"repro/internal/policy"
	"repro/internal/trace"
)

// Sharded is a concurrency-safe CLIC front: it hash-partitions the page
// space across N independent Caches, each carrying its own outqueue and
// each touched by one goroutine at a time — whichever holds the shard's
// try-lock (owner.go). Requests for different shards proceed in parallel,
// so multiple simulated clients can drive one server cache concurrently —
// the serving scenario the single Cache (which is not safe for concurrent
// use) cannot support.
//
// Partitioning preserves CLIC's placement semantics per shard: a page's
// whole history lands on one shard, so re-reference detection, outqueue
// records and victim selection for that page are exactly those of a plain
// Cache over the shard's request subsequence.
//
// The hint statistics are learned cache-wide: all shards feed and read one
// shared learner (clicstats.Global) over the full window W, each through a
// tap of its own, so the priority model is the one the whole request
// stream implies while placement stays partitioned. How that stays exact
// for one stream of requests, and what concurrency relaxes, is
// Producer.AccessBatch's and clicstats.Global's to say.
type Sharded struct {
	shards   []shardedShard
	capacity int
	global   *clicstats.Global
}

// shardedShard is one Cache partition with its hand-off words and its
// snapshot counters, laid out in two cache lines of its own so that
// neighbouring shards in the []shardedShard never share one.
//
// The first line is what goroutines contend on to reach the cache: the
// pending list and the try-lock (owner.go), next to the two pointers
// whoever wins the line reads next and which never change: the cache, and
// the shard's tap on the shared learner.
//
// The second line mirrors the shard's accounting so that cross-shard
// snapshots (Stats, Len, OutqueueLen) are plain atomic loads
// instead of a sweep that takes every shard: the network server reads them
// on every response batch. They are written only by the goroutine holding
// the shard, so each counter is internally exact; a snapshot across
// counters is consistent up to in-flight requests on other shards.
type shardedShard struct {
	pending atomic.Pointer[frame] // posted frames not yet taken by a combiner
	busy    atomic.Bool           // the try-lock: held by whoever runs the cache
	c       *Cache
	tap     *clicstats.Learner
	_       [cacheLine - 32]byte

	reads     atomic.Uint64
	readHits  atomic.Uint64
	writes    atomic.Uint64
	evictions atomic.Uint64
	len       atomic.Int64
	outq      atomic.Int64
	_         [cacheLine - 48]byte
}

// cacheLine is the coherence granule shardedShard is padded to.
const cacheLine = 64

var _ policy.Policy = (*Sharded)(nil)

// NewSharded returns a CLIC front with n shards. The configured capacity,
// outqueue and window are totals for the whole front: capacity and outqueue
// entries are split across shards (remainders go to the low shards); the
// window is not, since the shared learner rotates exactly every W
// requests, cache-wide. n = 1 degenerates to a plain Cache behind one
// try-lock.
func NewSharded(cfg Config, n int) *Sharded {
	if n <= 0 {
		panic("core: NewSharded needs at least one shard")
	}
	if cfg.Capacity < 0 {
		panic("core: negative capacity")
	}
	full := cfg.withDefaults()
	s := &Sharded{shards: make([]shardedShard, n), capacity: full.Capacity, global: clicstats.NewGlobal(full.learnerConfig())}
	for i := range s.shards {
		sub := Config{
			Capacity: splitEven(full.Capacity, n, i),
			Window:   full.Window,
			R:        full.R,
			TopK:     full.TopK,
		}
		// withDefaults has already resolved Noutq to an entry count; a zero
		// split must not re-trigger the 5×-capacity default, so disabled
		// shards get NoOutqueue explicitly.
		if q := splitEven(full.Noutq, n, i); q > 0 {
			sub.Noutq = q
		} else {
			sub.Noutq = NoOutqueue
		}
		sub = sub.withDefaults()
		s.shards[i].tap = s.global.Tap()
		s.shards[i].c = newCache(sub, s.shards[i].tap)
	}
	return s
}

// splitEven distributes total across n buckets, giving the remainder to the
// lowest-indexed buckets.
func splitEven(total, n, i int) int {
	v := total / n
	if i < total%n {
		v++
	}
	return v
}

// ShardFor returns the shard index that owns a page. The mapping is a fixed
// hash of the page number, so a page's whole request history stays on one
// shard.
func (s *Sharded) ShardFor(page uint64) int {
	return int(mix64(page) % uint64(len(s.shards)))
}

// mix64 is the SplitMix64 finalizer, a cheap full-avalanche mixer: page
// numbers are sequential per table/region, so taking them mod N directly
// would stripe hot regions onto few shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Name implements policy.Policy. The name reflects sharding only.
func (s *Sharded) Name() string {
	if len(s.shards) == 1 {
		return "CLIC"
	}
	return fmt.Sprintf("CLIC/%d", len(s.shards))
}

// Global returns the shared learner. The server uses it to wire summary
// publication and absorption between cluster nodes (internal/cluster).
func (s *Sharded) Global() *clicstats.Global { return s.global }

// Access implements policy.Policy. It is safe for concurrent use: the
// caller takes the request's shard through its try-lock (yielding while
// another goroutine holds it), runs the request itself and releases, so
// requests for different shards proceed in parallel and requests for one
// shard serialize. Each request is a one-request lease on its shard's tap,
// opened and closed with a CAS on the tap's state word, and counted in the
// tap's own window. Batch drivers should use NewProducer/AccessBatch, which
// pay the hand-off and the lease once per frame instead of once per
// request.
func (s *Sharded) Access(r trace.Request) bool {
	sh := &s.shards[s.ShardFor(r.Page)]
	sh.hold()
	sh.tap.Begin(1)
	hit := sh.c.Access(r)
	read := r.Op == trace.Read
	s.settle(sh, b2u(read), b2u(hit), b2u(!read))
	s.release(sh, nil)
	return hit
}

// Len implements policy.Policy, summing the shards' cached-page counts.
func (s *Sharded) Len() int {
	n := int64(0)
	for i := range s.shards {
		n += s.shards[i].len.Load()
	}
	return int(n)
}

// Capacity implements policy.Policy, returning the front's total capacity.
func (s *Sharded) Capacity() int { return s.capacity }

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// Windows returns the number of completed statistics windows: the shared
// learner's rotations.
func (s *Sharded) Windows() int { return s.global.Windows() }

// OutqueueLen returns the total number of outqueue entries across shards.
func (s *Sharded) OutqueueLen() int {
	n := int64(0)
	for i := range s.shards {
		n += s.shards[i].outq.Load()
	}
	return int(n)
}

// Stats is a point-in-time snapshot of a Sharded front's accounting.
type Stats struct {
	// Requests, Reads, ReadHits, ReadMisses and Writes count every Access
	// since construction; Requests = Reads + Writes and
	// Reads = ReadHits + ReadMisses.
	Requests   uint64
	Reads      uint64
	ReadHits   uint64
	ReadMisses uint64
	Writes     uint64
	// Evictions counts cached pages displaced by higher-priority admits.
	Evictions uint64
	// Len, OutqueueLen and Windows mirror the like-named methods.
	Len         int
	OutqueueLen int
	Windows     int
	// Shards and Capacity are the front's fixed configuration.
	Shards   int
	Capacity int
}

// HitRatio returns the snapshot's read hit ratio (0 when no reads yet).
func (st Stats) HitRatio() float64 {
	if st.Reads == 0 {
		return 0
	}
	return float64(st.ReadHits) / float64(st.Reads)
}

// Stats assembles a snapshot from the per-shard counters without taking any
// shard lock — a handful of atomic loads, cheap enough for a network server
// to call per response batch. Counters from shards with requests in flight
// may lag by those requests; each counter is individually exact.
func (s *Sharded) Stats() Stats {
	st := Stats{Shards: len(s.shards), Capacity: s.capacity, Windows: s.global.Windows()}
	for i := range s.shards {
		sh := &s.shards[i]
		// Load readHits before reads: a concurrent Access bumps reads
		// first, so hits observed here can only lag the reads observed
		// next, keeping ReadHits <= Reads (and ReadMisses non-negative)
		// in every snapshot.
		st.ReadHits += sh.readHits.Load()
		st.Reads += sh.reads.Load()
		st.Writes += sh.writes.Load()
		st.Evictions += sh.evictions.Load()
		st.Len += int(sh.len.Load())
		st.OutqueueLen += int(sh.outq.Load())
	}
	st.Requests = st.Reads + st.Writes
	st.ReadMisses = st.Reads - st.ReadHits
	return st
}

// ShardStats is one shard's share of the front's accounting — the same
// counters Stats sums, kept per shard so observability surfaces (/stats,
// /metrics, timelines) can show load skew across the partition hash.
type ShardStats struct {
	Reads       uint64 `json:"reads"`
	ReadHits    uint64 `json:"read_hits"`
	Writes      uint64 `json:"writes"`
	Evictions   uint64 `json:"evictions"`
	Len         int    `json:"len"`
	OutqueueLen int    `json:"outqueue_len"`
}

// ShardStats snapshots shard i's counters without taking its lock, with the
// same read-hits-before-reads ordering (and the same in-flight lag caveat)
// as Stats.
func (s *Sharded) ShardStats(i int) ShardStats {
	sh := &s.shards[i]
	var st ShardStats
	st.ReadHits = sh.readHits.Load()
	st.Reads = sh.reads.Load()
	st.Writes = sh.writes.Load()
	st.Evictions = sh.evictions.Load()
	st.Len = int(sh.len.Load())
	st.OutqueueLen = int(sh.outq.Load())
	return st
}

// TrackedHintSets returns the number of hint sets the taps' windows
// currently track, summed over the shards: a hint set seen by several
// shards counts once per shard. Shards mid-frame are not counted (see
// clicstats.Global).
func (s *Sharded) TrackedHintSets() int { return s.global.TrackedHintSets() }

// WindowStats returns cache-wide per-hint-set statistics for the current
// window, summed over the taps not mid-frame and sorted like
// Cache.WindowStats.
func (s *Sharded) WindowStats() []HintStat { return s.global.WindowStats() }
