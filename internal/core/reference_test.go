// The record store this package used before the records moved into the
// page table, kept verbatim (types and methods renamed ref*) as the oracle
// the in-table store is compared against request by request: a slab of
// page records with a free list, and a separate open-addressing table of
// 8-byte slots, each a 32-bit hash tag above a slab index. refCache runs
// Figure 4 over that store with its own copies of the group lists, the
// victim heap and the outqueue; it shares only the clicstats learner.

package core

import (
	"repro/internal/clicstats"
	"repro/internal/hint"
	"repro/internal/trace"
)

// refCache is Cache as it stood with a slab and a separate page table.
type refCache struct {
	cfg Config
	seq uint64

	learner *clicstats.Learner
	epoch   uint64

	ents  []refEntry
	table refTable
	free  uint32

	groups []group
	heap   []hint.ID
	cached int

	outHead, outTail uint32
	outSize          int

	evictions uint64
}

// newRefCache builds the oracle for cfg with a private partitioned learner.
func newRefCache(cfg Config) *refCache {
	cfg = cfg.withDefaults()
	c := &refCache{
		cfg:     cfg,
		learner: clicstats.NewPartitioned(cfg.learnerConfig()),
		ents:    make([]refEntry, 1), // index 0 is nil
	}
	c.table.init()
	return c
}

// refTable is the cache's one page index: an open-addressing hash table
// from page number to the slab index of the page's record (cached or
// outqueued — a page has at most one). Linear probing over 8-byte slots
// keeps a probe inside one cache line almost always; deletion shifts the
// following run back over the hole, so there are no tombstones and the
// table never needs a clean-up rehash. It starts small and doubles on
// demand, so its footprint follows the live record count, not the
// configured capacity.
//
// A slot packs the top 32 bits of the page's hash (the tag) above the
// record's slab index; 0 is an empty slot, which works because slab index
// 0 is reserved as nil. The page number itself lives only in the record:
// a lookup that matches a tag confirms it against the slab entry it is
// about to read anyway, and removal and growth need no page numbers at
// all — a slot's home position is a prefix of its tag.
type refTable struct {
	slots []uint64
	shift uint // 32 - log2(len(slots)): home slot = tag >> shift
	n     int
}

const (
	// refMinTableSlots is the initial table size.
	refMinTableBits  = 4
	refMinTableSlots = 1 << refMinTableBits
)

func (t *refTable) init() {
	t.slots = make([]uint64, refMinTableSlots)
	t.shift = 32 - refMinTableBits
}

// refTag is the top half of a multiplicative (Fibonacci) hash: sequential
// page numbers, the common case, spread evenly over its high bits.
func refTag(page uint64) uint32 {
	return uint32((page * 0x9E3779B97F4A7C15) >> 32)
}

// find returns the slab index of the page's record, or 0 if it has none.
func (t *refTable) find(ents []refEntry, page uint64) uint32 {
	tag := refTag(page)
	mask := uint32(len(t.slots) - 1)
	for i := tag >> t.shift; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0
		}
		if uint32(s>>32) == tag && ents[uint32(s)].page == page {
			return uint32(s)
		}
	}
}

// insert maps a page that has no record yet to slab index idx (nonzero).
func (t *refTable) insert(page uint64, idx uint32) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	t.place(uint64(refTag(page))<<32 | uint64(idx))
	t.n++
}

// place stores a slot value at the first free position of its probe run.
func (t *refTable) place(s uint64) {
	mask := uint32(len(t.slots) - 1)
	i := uint32(s>>32) >> t.shift
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// grow doubles the table, re-placing every slot from its tag alone.
func (t *refTable) grow() {
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	t.shift--
	for _, s := range old {
		if s != 0 {
			t.place(s)
		}
	}
}

// remove unmaps the page whose record is slab index idx, then closes the
// hole by backward shift: each following slot of the run moves into the
// hole unless that would put it before its home position.
func (t *refTable) remove(page uint64, idx uint32) {
	mask := uint32(len(t.slots) - 1)
	i := refTag(page) >> t.shift
	for uint32(t.slots[i]) != idx {
		if t.slots[i] == 0 {
			panic("core: page table has no slot for a live record")
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		s := t.slots[j]
		if s == 0 {
			break
		}
		home := uint32(s>>32) >> t.shift
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = 0
	t.n--
}

// refEntry records the most recent request for a page: its sequence number
// and hint set (§3.1). Entries live in one slab (Cache.ents) and refer to
// each other by slab index, 0 meaning nil: 32 bytes each, no pointers for
// the collector to trace. A live entry is linked into exactly one list —
// its hint set's group (cached pages) or the outqueue (uncached pages) —
// and moves between the two by relinking; free entries chain through next.
type refEntry struct {
	page       uint64
	seq        uint64
	prev, next uint32
	hint       hint.ID
	cached     bool // in groups[hint]'s list rather than the outqueue's
}

// alloc takes an entry off the free list, growing the slab when the list is
// empty. Growth invalidates *refEntry pointers, so callers re-derive them.
func (c *refCache) alloc() uint32 {
	if i := c.free; i != 0 {
		c.free = c.ents[i].next
		return i
	}
	c.ents = append(c.ents, refEntry{})
	return uint32(len(c.ents) - 1)
}

// release unmaps an unlinked entry's page and returns the entry to the free
// list.
func (c *refCache) release(i uint32) {
	e := &c.ents[i]
	c.table.remove(e.page, i)
	*e = refEntry{next: c.free}
	c.free = i
}

// appendToGroup links entry i at the tail of its hint set's group,
// registering the group in the heap when it was empty. The group table
// grows when a new hint ID appears (vocabulary growth, not steady state).
func (c *refCache) appendToGroup(i uint32) {
	e := &c.ents[i]
	h := e.hint
	for int(h) >= len(c.groups) {
		c.groups = append(c.groups, group{})
	}
	g := &c.groups[h]
	e.cached = true
	e.prev = g.tail
	e.next = 0
	if g.tail != 0 {
		c.ents[g.tail].next = i
		g.tail = i
		// Appends never change a non-empty group's head, so its heap
		// position stands.
		return
	}
	g.head, g.tail = i, i
	g.headSeq = e.seq
	g.pr = c.learner.Priority(h)
	g.heapIdx = int32(len(c.heap))
	c.heap = append(c.heap, h)
	c.heapUp(len(c.heap) - 1)
}

// removeFromGroup unlinks cached entry i from its group, fixing the heap if
// the group's head (its key component) changed and dropping the group from
// the heap when it empties.
func (c *refCache) removeFromGroup(i uint32) {
	e := &c.ents[i]
	g := &c.groups[e.hint]
	if e.next != 0 {
		c.ents[e.next].prev = e.prev
	} else {
		g.tail = e.prev
	}
	if e.prev != 0 {
		c.ents[e.prev].next = e.next
		e.prev, e.next, e.cached = 0, 0, false
		return
	}
	g.head = e.next
	e.next, e.cached = 0, false
	if g.head == 0 {
		c.heapRemove(int(g.heapIdx))
		return
	}
	g.headSeq = c.ents[g.head].seq
	c.heapFix(int(g.heapIdx))
}

// The victim heap: Cache.heap is a binary min-heap of the non-empty groups'
// hint IDs keyed by (priority, head sequence number), so the top group's
// head is the global victim — the oldest page among those with the minimum
// priority (Figure 4 lines 7–11).

func (c *refCache) heapLess(i, j int) bool {
	a, b := &c.groups[c.heap[i]], &c.groups[c.heap[j]]
	if a.pr != b.pr {
		return a.pr < b.pr
	}
	return a.headSeq < b.headSeq
}

func (c *refCache) heapSwap(i, j int) {
	h := c.heap
	h[i], h[j] = h[j], h[i]
	c.groups[h[i]].heapIdx = int32(i)
	c.groups[h[j]].heapIdx = int32(j)
}

func (c *refCache) heapUp(j int) {
	for j > 0 {
		p := (j - 1) / 2
		if !c.heapLess(j, p) {
			break
		}
		c.heapSwap(p, j)
		j = p
	}
}

// heapDown sifts position i down within the first n heap slots and reports
// whether it moved.
func (c *refCache) heapDown(i, n int) bool {
	start := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && c.heapLess(r, l) {
			m = r
		}
		if !c.heapLess(m, i) {
			break
		}
		c.heapSwap(i, m)
		i = m
	}
	return i > start
}

// heapFix restores order after the key of position i changed.
func (c *refCache) heapFix(i int) {
	if !c.heapDown(i, len(c.heap)) {
		c.heapUp(i)
	}
}

// heapRemove drops position i from the heap.
func (c *refCache) heapRemove(i int) {
	n := len(c.heap) - 1
	if i != n {
		c.heapSwap(i, n)
		c.heap = c.heap[:n]
		c.heapFix(i)
		return
	}
	c.heap = c.heap[:n]
}

// heapInit rebuilds heap order after every key changed.
func (c *refCache) heapInit() {
	n := len(c.heap)
	for i := n/2 - 1; i >= 0; i-- {
		c.heapDown(i, n)
	}
}

// The outqueue is the bounded FIFO of most-recent-request records for pages
// that are not cached (§3.1): a list through the slab from outHead (least
// recently inserted) to outTail. When full, the least-recently inserted
// entry is displaced, deliberately biasing re-reference detection toward
// short re-reference distances — the ones that lead to high caching
// priority.

func (c *refCache) outAppend(i uint32) {
	e := &c.ents[i]
	e.prev = c.outTail
	e.next = 0
	if c.outTail != 0 {
		c.ents[c.outTail].next = i
	} else {
		c.outHead = i
	}
	c.outTail = i
}

func (c *refCache) outUnlink(i uint32) {
	e := &c.ents[i]
	if e.prev != 0 {
		c.ents[e.prev].next = e.next
	} else {
		c.outHead = e.next
	}
	if e.next != 0 {
		c.ents[e.next].prev = e.prev
	} else {
		c.outTail = e.prev
	}
	e.prev, e.next = 0, 0
}

// record notes an uncached request in the outqueue (Figure 4 lines 19–22).
// oi is the page's outqueue entry if it has one: its record is refreshed
// and it moves to the most-recently-inserted position. Otherwise a new
// entry is made, reusing the least-recently inserted one when the queue is
// full.
func (c *refCache) record(page, s uint64, h hint.ID, oi uint32) {
	switch {
	case oi != 0:
		c.outUnlink(oi)
	case c.cfg.Noutq == 0:
		return
	case c.outSize >= c.cfg.Noutq:
		oi = c.outHead
		c.outUnlink(oi)
		c.table.remove(c.ents[oi].page, oi)
		c.table.insert(page, oi)
	default:
		oi = c.alloc()
		c.table.insert(page, oi)
		c.outSize++
	}
	e := &c.ents[oi]
	e.page, e.seq, e.hint = page, s, h
	c.outAppend(oi)
}

// outqueueVictim moves just-evicted entry v (already unlinked from its
// group) into the outqueue: the entry itself migrates, its page stays
// mapped to it. It returns the entry displaced to make room, if any — the
// caller checks it against the incoming page's own outqueue entry, which
// can be exactly the one displaced.
func (c *refCache) outqueueVictim(v uint32) (displaced uint32) {
	if c.cfg.Noutq == 0 {
		c.release(v)
		return 0
	}
	if c.outSize >= c.cfg.Noutq {
		displaced = c.outHead
		c.outUnlink(displaced)
		c.outSize--
		c.release(displaced)
	}
	c.outAppend(v)
	c.outSize++
	return displaced
}

// Access implements policy.Policy, processing one request per Figure 4 and
// feeding the hint statistics of §3.1 to the learner.
func (c *refCache) Access(r trace.Request) bool {
	// A shared learner may have rotated since our last request; re-key the
	// victim heap before any placement decision reads priorities.
	c.syncPriorities()

	s := c.seq
	c.seq++

	// The request's one table probe: i is the page's record, cached or
	// outqueued, serving both the statistics and the placement decision.
	i := c.table.find(c.ents, r.Page)

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

// syncPriorities re-keys the group heap against the learner's current
// priority table if the table changed since the last sync (§4: the heap is
// keyed by priority, so a rotation invalidates its order).
func (c *refCache) syncPriorities() {
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
func (c *refCache) admit(page, s uint64, h hint.ID, oi uint32) {
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
			// The victim's record enters the outqueue before the new page's
			// stale record leaves: if the outqueue is full, the entry
			// displaced can be oi itself, in which case the incoming page
			// no longer has a record to reuse.
			if c.outqueueVictim(v) == oi {
				oi = 0
			}
			c.insert(page, s, h, oi)
			return
		}
	}
	// Do not cache: record the request in the outqueue (lines 19–22).
	c.record(page, s, h, oi)
}

// insert caches a page with the given record. oi is the page's outqueue
// entry if it still has one: the entry migrates into its group and the
// page table is untouched.
func (c *refCache) insert(page, s uint64, h hint.ID, oi uint32) {
	if oi != 0 {
		c.outUnlink(oi)
		c.outSize--
	} else {
		oi = c.alloc()
		c.table.insert(page, oi)
	}
	e := &c.ents[oi]
	e.page, e.seq, e.hint = page, s, h
	c.cached++
	c.appendToGroup(oi)
}
