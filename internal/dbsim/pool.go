package dbsim

// bufPage is one frame in a client buffer pool.
type bufPage struct {
	page         uint64
	obj          *Object
	dirty        bool
	prev, next   *bufPage // LRU list links; head is MRU
	dprev, dnext *bufPage // dirty list links, set only while dirty
}

// pageIndex maps each page a client's pools hold to its frame: the value
// is one plus the frame's slot in its pool, and 0 means no pool holds the
// page. A Database hands out pages densely from 0, so a slice indexed by
// page number replaces a hash map, and one index serves all of a client's
// pools because a page always lives in its object's pool.
type pageIndex struct{ slot []int32 }

// bufPool is a client-tier buffer cache with LRU replacement and dirty-page
// tracking. One bufPool per DB2 buffer pool; MySQL uses a single pool.
//
// Every frame is on the LRU list. The dirty frames are also on a second
// list, and only they are: the dirty list holds exactly the frames with
// dirty set, in the same relative order as on the LRU list, and its length
// is the dirty count. The page cleaner walks that list, so a wake-up costs
// per dirty page found, not per clean frame it would otherwise pass.
type bufPool struct {
	id           int
	capacity     int
	index        *pageIndex
	frames       []bufPage // allocated once at capacity, so frames never move
	free         int32     // slot+1 of the last evicted frame, reused by insert
	head         *bufPage  // MRU
	tail         *bufPage  // LRU
	dhead, dtail *bufPage  // MRU and LRU dirty frames
	dirty        int
	scan         []*bufPage // reused result of dirtyFromLRU
}

func newBufPool(id, capacity int, index *pageIndex) *bufPool {
	return &bufPool{id: id, capacity: capacity, index: index, frames: make([]bufPage, 0, capacity)}
}

func (p *bufPool) len() int {
	if p.free != 0 {
		return len(p.frames) - 1
	}
	return len(p.frames)
}

// lookup returns the frame for a page, or nil if the pool does not hold it.
func (p *bufPool) lookup(page uint64) *bufPage {
	if page >= uint64(len(p.index.slot)) || p.index.slot[page] == 0 {
		return nil
	}
	return &p.frames[p.index.slot[page]-1]
}

// get returns the frame for a page, refreshing recency, or nil on a miss.
func (p *bufPool) get(page uint64) *bufPage {
	f := p.lookup(page)
	if f != nil {
		p.moveToFront(f)
	}
	return f
}

// victim returns the LRU frame that must be evicted before an insert, or
// nil if the pool has free space.
func (p *bufPool) victim() *bufPage {
	if p.len() < p.capacity {
		return nil
	}
	return p.tail
}

// evict removes a frame from the pool. The frame is kept for the next insert
// to reuse, so the caller must not hold on to it.
func (p *bufPool) evict(f *bufPage) {
	p.markClean(f)
	p.remove(f)
	p.free = p.index.slot[f.page]
	p.index.slot[f.page] = 0
}

// insert adds a page at the MRU position. The caller must have made room.
func (p *bufPool) insert(page uint64, obj *Object) *bufPage {
	h := p.free
	if h != 0 {
		p.free = 0
	} else {
		p.frames = p.frames[:len(p.frames)+1]
		h = int32(len(p.frames))
	}
	if n := int(page) + 1; n > len(p.index.slot) {
		p.index.slot = append(p.index.slot, make([]int32, n-len(p.index.slot))...)
	}
	p.index.slot[page] = h
	f := &p.frames[h-1]
	*f = bufPage{page: page, obj: obj}
	p.pushFront(f)
	return f
}

// markDirty flags a frame as modified. The frame must be the MRU frame (its
// one caller, Client.access, has just fetched it), so it joins the dirty
// list at the front and the two lists keep the same order.
func (p *bufPool) markDirty(f *bufPage) {
	if p.head != f {
		panic("dbsim: markDirty of a frame that is not MRU")
	}
	if f.dirty {
		return
	}
	f.dirty = true
	p.dirty++
	f.dprev, f.dnext = nil, p.dhead
	if p.dhead != nil {
		p.dhead.dprev = f
	} else {
		p.dtail = f
	}
	p.dhead = f
}

// markClean clears a frame's dirty flag (after its contents were written)
// and takes it off the dirty list.
func (p *bufPool) markClean(f *bufPage) {
	if !f.dirty {
		return
	}
	f.dirty = false
	p.dirty--
	p.unlinkDirty(f)
}

// dirtyFromLRU returns up to max dirty frames starting from the LRU end, in
// LRU-to-MRU order. The page cleaner writes these: cleaning cold dirty
// pages first is exactly what produces replacement writes for pages about
// to be evicted from the client. It walks the dirty list, which is in LRU
// order, so it never passes a clean frame. The returned slice is reused by
// the next call.
func (p *bufPool) dirtyFromLRU(max int) []*bufPage {
	out := p.scan[:0]
	for f := p.dtail; f != nil && len(out) < max; f = f.dprev {
		out = append(out, f)
	}
	p.scan = out
	return out
}

// allDirty returns every dirty frame in LRU-to-MRU order (checkpointing),
// in the slice dirtyFromLRU reuses.
func (p *bufPool) allDirty() []*bufPage {
	return p.dirtyFromLRU(p.dirty)
}

func (p *bufPool) pushFront(f *bufPage) {
	f.prev = nil
	f.next = p.head
	if p.head != nil {
		p.head.prev = f
	}
	p.head = f
	if p.tail == nil {
		p.tail = f
	}
}

func (p *bufPool) remove(f *bufPage) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		p.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		p.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

// moveToFront makes f the MRU frame; a dirty f also becomes the MRU dirty
// frame, which keeps the dirty list in LRU order.
func (p *bufPool) moveToFront(f *bufPage) {
	if p.head == f {
		return
	}
	p.remove(f)
	p.pushFront(f)
	if f.dirty && p.dhead != f {
		p.unlinkDirty(f)
		f.dnext = p.dhead
		p.dhead.dprev = f
		p.dhead = f
	}
}

func (p *bufPool) unlinkDirty(f *bufPage) {
	if f.dprev != nil {
		f.dprev.dnext = f.dnext
	} else {
		p.dhead = f.dnext
	}
	if f.dnext != nil {
		f.dnext.dprev = f.dprev
	} else {
		p.dtail = f.dprev
	}
	f.dprev, f.dnext = nil, nil
}
