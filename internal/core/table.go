package core

// pageTable is the cache's one page index: an open-addressing hash table
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
type pageTable struct {
	slots []uint64
	shift uint // 32 - log2(len(slots)): home slot = tag >> shift
	n     int
}

const (
	// minTableSlots is the initial table size.
	minTableBits  = 4
	minTableSlots = 1 << minTableBits
	// maxRecords bounds Capacity+Noutq: record indices are uint32 and the
	// table addresses at most 2^32 slots at a load factor of at most 3/4.
	maxRecords = 1 << 31
)

func (t *pageTable) init() {
	t.slots = make([]uint64, minTableSlots)
	t.shift = 32 - minTableBits
}

// pageTag is the top half of a multiplicative (Fibonacci) hash: sequential
// page numbers, the common case, spread evenly over its high bits.
func pageTag(page uint64) uint32 {
	return uint32((page * 0x9E3779B97F4A7C15) >> 32)
}

// find returns the slab index of the page's record, or 0 if it has none.
func (t *pageTable) find(ents []pageEntry, page uint64) uint32 {
	tag := pageTag(page)
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

// touch is the first half of find's memory traffic: it loads the page's
// probe run up to the first tag match and returns the slab index stored
// there (0 when the run ends on an empty slot), without confirming it
// against the record. A caller about to look up several pages touches them
// all first: the runs are independent, so their cache misses overlap. The
// record's own line is deliberately left to a second pass over the indices
// (Cache.warm), where it is loaded together with its two list neighbours —
// loading it here would make every probe wait on the record before the
// next page's run could issue, and a tag match that find would go on to
// reject (one in 2^32) only costs a line warmed for nothing.
func (t *pageTable) touch(page uint64) uint32 {
	tag := pageTag(page)
	mask := uint32(len(t.slots) - 1)
	for i := tag >> t.shift; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 || uint32(s>>32) == tag {
			return uint32(s)
		}
	}
}

// insert maps a page that has no record yet to slab index idx (nonzero).
func (t *pageTable) insert(page uint64, idx uint32) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	t.place(uint64(pageTag(page))<<32 | uint64(idx))
	t.n++
}

// place stores a slot value at the first free position of its probe run.
func (t *pageTable) place(s uint64) {
	mask := uint32(len(t.slots) - 1)
	i := uint32(s>>32) >> t.shift
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// grow doubles the table, re-placing every slot from its tag alone.
func (t *pageTable) grow() {
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
func (t *pageTable) remove(page uint64, idx uint32) {
	mask := uint32(len(t.slots) - 1)
	i := pageTag(page) >> t.shift
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
