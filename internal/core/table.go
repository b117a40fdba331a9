package core

import "math/bits"

// The page table is the record store itself: Cache.ents is an
// open-addressing hash table whose slots are the 32-byte page records, so a
// lookup loads the record's own line and confirms the full page number
// there. Positions 1..n are probe slots (n = len(ents)-1); position 0 is the
// nil record, always zero, so list links and warm's neighbour loads can name
// "none" without a branch. A slot is occupied when its record is used.
//
// Probing is linear and wraps from slot n to slot 1. Deletion shifts the
// following run back over the hole, so there are no tombstones and the
// table never needs a clean-up rehash. A record that moves takes its links
// with it and repoints its list neighbours (or its list's ends) at its new
// position, which is why every record a removal can shift must be on a list.
// The table starts small and grows by half when its load would pass 4/5, so
// its footprint follows the live record count, not the configured capacity;
// the record count never falls, so growth happens only while it rises.

const (
	// minTableSlots is the initial number of probe slots.
	minTableSlots = 16
	// maxSlots is the number of probe slots uint32 positions address
	// beside the nil record.
	maxSlots = 1<<32 - 1
	// maxRecords bounds Capacity+Noutq: the table holds at most 4/5 of
	// maxSlots records.
	maxRecords = maxSlots * 4 / 5
)

// home returns page's home slot among n probe slots: the top bits of a
// multiplicative (Fibonacci) hash scaled to n, so sequential page numbers,
// the common case, spread evenly, and n need not be a power of two.
func home(page uint64, n uint32) uint32 {
	hi, _ := bits.Mul64(page*0x9E3779B97F4A7C15, uint64(n))
	return uint32(hi) + 1
}

// find returns the position of the page's record, or 0 if it has none.
func (c *Cache) find(page uint64) uint32 {
	ents := c.ents
	n := uint32(len(ents) - 1)
	for i := home(page, n); ; {
		e := &ents[i]
		if !e.used {
			return 0
		}
		if e.page == page {
			return i
		}
		if i++; i > n {
			i = 1
		}
	}
}

// place makes an unlinked record for page, which has none, and returns its
// position. Growing the table first moves every record, so positions held
// across a place are stale.
func (c *Cache) place(page uint64) uint32 {
	if uint64(c.cached+c.outSize+1)*5 > uint64(len(c.ents)-1)*4 {
		c.grow()
	}
	i := freeSlot(c.ents, page)
	c.ents[i] = pageEntry{page: page, used: true}
	return i
}

// freeSlot returns the first unused slot of page's probe run in ents.
func freeSlot(ents []pageEntry, page uint64) uint32 {
	n := uint32(len(ents) - 1)
	i := home(page, n)
	for ents[i].used {
		if i++; i > n {
			i = 1
		}
	}
	return i
}

// grow re-places every record in a table half as large again, then maps
// every link and list end through the old-to-new position array.
func (c *Cache) grow() {
	old := c.ents
	n := min(uint64(len(old)-1)*3/2, maxSlots)
	c.ents = make([]pageEntry, n+1)
	moved := make([]uint32, len(old))
	for j := 1; j < len(old); j++ {
		if old[j].used {
			i := freeSlot(c.ents, old[j].page)
			c.ents[i] = old[j]
			moved[j] = i
		}
	}
	for i := range c.ents {
		e := &c.ents[i]
		e.prev, e.next = moved[e.prev], moved[e.next]
	}
	for h := range c.groups {
		g := &c.groups[h]
		g.head, g.tail = moved[g.head], moved[g.tail]
	}
	c.outHead, c.outTail = moved[c.outHead], moved[c.outTail]
}

// remove deletes the unlinked record at position i, then closes the hole by
// backward shift: each following record of the run moves into the hole
// unless that would put it before its home slot, and relinks there.
func (c *Cache) remove(i uint32) {
	ents := c.ents
	n := uint32(len(ents) - 1)
	for j := i; ; {
		if j++; j > n {
			j = 1
		}
		if !ents[j].used {
			break
		}
		// The record at j may fill the hole if its home is no nearer to j
		// than the hole is, counting cyclically over the n slots.
		if cyclic(home(ents[j].page, n), j, n) >= cyclic(i, j, n) {
			ents[i] = ents[j]
			c.relink(i)
			i = j
		}
	}
	ents[i] = pageEntry{}
}

// cyclic is the number of steps from slot a forward to slot b among n.
func cyclic(a, b, n uint32) uint32 {
	if b < a {
		return b + n - a
	}
	return b - a
}

// relink repoints the list neighbours of the record just moved to position
// i — or its list's head or tail where it has none — at i.
func (c *Cache) relink(i uint32) {
	e := &c.ents[i]
	head, tail := &c.outHead, &c.outTail
	if e.cached {
		g := &c.groups[e.hint]
		head, tail = &g.head, &g.tail
	}
	if e.prev != 0 {
		c.ents[e.prev].next = i
	} else {
		*head = i
	}
	if e.next != 0 {
		c.ents[e.next].prev = i
	} else {
		*tail = i
	}
}
