package core

import "repro/internal/hint"

// pageEntry records the most recent request for a page: its sequence number
// and hint set (§3.1). Entries are the slots of the page table (Cache.ents,
// table.go) and refer to each other by position, 0 meaning nil: 32 bytes
// each, no pointers for the collector to trace. A used entry is linked into
// exactly one list — its hint set's group (cached pages) or the outqueue
// (uncached pages) — and moves between the two by relinking; an unused one
// is an empty slot, all zero.
type pageEntry struct {
	page       uint64
	seq        uint64
	prev, next uint32
	hint       hint.ID
	cached     bool // in groups[hint]'s list rather than the outqueue's
	used       bool // holds a page's record: the slot is occupied
}

// group collects all cached pages whose latest request carried the same
// hint set, in a doubly-linked list ordered by sequence number (appends are
// always the newest request, so order holds by construction). Groups live
// in Cache.groups indexed by hint ID; a non-empty group sits in the
// priority heap keyed by (pr, headSeq), both held here so heap operations
// stay inside the group table.
type group struct {
	pr         float64
	headSeq    uint64 // ents[head].seq
	head, tail uint32 // head is the minimum sequence number; 0 = empty group
	heapIdx    int32  // position in Cache.heap while non-empty
}

// appendToGroup links entry i at the tail of its hint set's group,
// registering the group in the heap when it was empty. The group table
// grows when a new hint ID appears (vocabulary growth, not steady state).
func (c *Cache) appendToGroup(i uint32) {
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
func (c *Cache) removeFromGroup(i uint32) {
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

func (c *Cache) heapLess(i, j int) bool {
	a, b := &c.groups[c.heap[i]], &c.groups[c.heap[j]]
	if a.pr != b.pr {
		return a.pr < b.pr
	}
	return a.headSeq < b.headSeq
}

func (c *Cache) heapSwap(i, j int) {
	h := c.heap
	h[i], h[j] = h[j], h[i]
	c.groups[h[i]].heapIdx = int32(i)
	c.groups[h[j]].heapIdx = int32(j)
}

func (c *Cache) heapUp(j int) {
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
func (c *Cache) heapDown(i, n int) bool {
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
func (c *Cache) heapFix(i int) {
	if !c.heapDown(i, len(c.heap)) {
		c.heapUp(i)
	}
}

// heapRemove drops position i from the heap.
func (c *Cache) heapRemove(i int) {
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
func (c *Cache) heapInit() {
	n := len(c.heap)
	for i := n/2 - 1; i >= 0; i-- {
		c.heapDown(i, n)
	}
}

// The outqueue is the bounded FIFO of most-recent-request records for pages
// that are not cached (§3.1): a list through the table from outHead (least
// recently inserted) to outTail. When full, the least-recently inserted
// entry is displaced, deliberately biasing re-reference detection toward
// short re-reference distances — the ones that lead to high caching
// priority.

func (c *Cache) outAppend(i uint32) {
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

func (c *Cache) outUnlink(i uint32) {
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
// record is placed, after the least-recently inserted one makes room when
// the queue is full.
func (c *Cache) record(page, s uint64, h hint.ID, oi uint32) {
	switch {
	case oi != 0:
		c.outUnlink(oi)
	case c.cfg.Noutq == 0:
		return
	default:
		if c.outSize >= c.cfg.Noutq {
			c.displaceOutHead()
		}
		oi = c.place(page)
		c.outSize++
	}
	e := &c.ents[oi]
	e.seq, e.hint = s, h
	c.outAppend(oi)
}

// outqueueVictim moves just-evicted entry v (already unlinked from its
// group) into the outqueue, displacing the least-recently inserted entry
// when that makes the queue overfull. v joins the queue before the
// displaced entry leaves, so that v is on a list when the removal shifts
// records. The removal can move any record, the incoming page's own
// included, or remove exactly that one: callers find it again.
func (c *Cache) outqueueVictim(v uint32) {
	if c.cfg.Noutq == 0 {
		c.remove(v)
		return
	}
	c.outAppend(v)
	c.outSize++
	if c.outSize > c.cfg.Noutq {
		c.displaceOutHead()
	}
}

// displaceOutHead removes the least-recently inserted outqueue entry.
func (c *Cache) displaceOutHead() {
	i := c.outHead
	c.outUnlink(i)
	c.outSize--
	c.remove(i)
}

// OutqueueLen returns the current number of outqueue entries.
func (c *Cache) OutqueueLen() int { return c.outSize }
