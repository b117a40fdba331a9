package dbsim

import "testing"

// refDirtyFromLRU is the page cleaner's scan before the dirty list: walk the
// whole LRU list from its tail and keep the dirty frames. It is the
// reference FuzzBufPoolDirty holds the dirty list to.
func refDirtyFromLRU(p *bufPool, max int) []*bufPage {
	var out []*bufPage
	for f := p.tail; f != nil && len(out) < max; f = f.prev {
		if f.dirty {
			out = append(out, f)
		}
	}
	return out
}

// checkDirtyList compares the dirty list against the full LRU scan and the
// dirty count.
func checkDirtyList(t *testing.T, p *bufPool, step int) {
	t.Helper()
	for _, k := range []int{0, 1, 2, 5, p.len() + 1} {
		want := refDirtyFromLRU(p, k)
		got := p.dirtyFromLRU(k)
		if !sameFrames(got, want) {
			t.Fatalf("step %d: dirtyFromLRU(%d) = %v, want %v", step, k, pages(got), pages(want))
		}
	}
	if want, got := refDirtyFromLRU(p, p.len()), p.allDirty(); !sameFrames(got, want) {
		t.Fatalf("step %d: allDirty() = %v, want %v", step, pages(got), pages(want))
	}
	n := 0
	for f := p.dhead; f != nil; f = f.dnext {
		n++
	}
	if n != p.dirty {
		t.Fatalf("step %d: dirty list holds %d frames, dirty count is %d", step, n, p.dirty)
	}
}

func sameFrames(a, b []*bufPage) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pages(fs []*bufPage) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = f.page
	}
	return out
}

// checkIndex compares the page index against ref, the page-to-frame map it
// replaced, over p's pages (the odd ones below 32), and checks that the
// neighbour pool sharing the index still finds its own frames.
func checkIndex(t *testing.T, p *bufPool, ref map[uint64]*bufPage, neighbour *bufPool, theirs map[uint64]*bufPage, step int) {
	t.Helper()
	for page := uint64(1); page < 32; page += 2 {
		if got := p.lookup(page); got != ref[page] {
			t.Fatalf("step %d: lookup(%d) = %p, map holds %p", step, page, got, ref[page])
		}
	}
	if p.len() != len(ref) {
		t.Fatalf("step %d: len() = %d, map holds %d frames", step, p.len(), len(ref))
	}
	for page, f := range theirs {
		if got := neighbour.lookup(page); got != f || f.page != page {
			t.Fatalf("step %d: neighbour's page %d lost its frame", step, page)
		}
	}
}

// FuzzBufPoolDirty runs random access-shaped operation sequences on a pool
// and checks, after every operation, that the dirty list agrees with a full
// scan of the LRU list, and that the page index agrees with a map. The pool
// shares its index with a neighbour pool holding even pages, as a client's
// pools do; its own page k is 2k+1. Each input byte is one operation: the
// low two bits choose it and the rest is its argument.
//
//	0: access a page as Client.access does (get, or evict the tail with
//	   markClean and insert), then markDirty it if the argument is odd
//	1: a cleaner wake-up: clean the dirty frames past the first gap of
//	   dirtyFromLRU(batch + gap)
//	2: a checkpoint: clean allDirty()
//	3: markDirty of a frame that is not MRU, which must panic
func FuzzBufPoolDirty(f *testing.F) {
	// Reading page k is byte 8k, updating it 8k+4.
	f.Add(uint8(3), []byte{4, 12, 16, 0, 3, 5, 8, 20, 2})
	f.Add(uint8(2), []byte{4, 12, 20, 28, 12, 4, 9, 1, 3})
	f.Add(uint8(7), []byte{4, 12, 20, 28, 36, 44, 12, 0, 52, 60, 69, 33, 2, 44, 3, 4})
	f.Add(uint8(0), []byte{4, 12, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		index := &pageIndex{}
		neighbour, theirs := newBufPool(1, 4, index), map[uint64]*bufPage{}
		for page := uint64(0); page < 8; page += 2 {
			theirs[page] = neighbour.insert(page, &Object{Name: "U"})
		}
		p, ref := newBufPool(0, int(capacity%8)+1, index), map[uint64]*bufPage{}
		obj := &Object{Name: "T"}
		for step, b := range ops {
			arg := int(b >> 2)
			switch b & 3 {
			case 0:
				page := uint64((arg>>1)%16*2 + 1)
				fr := p.get(page)
				if fr == nil {
					if v := p.victim(); v != nil {
						p.markClean(v)
						delete(ref, v.page)
						p.evict(v)
					}
					fr = p.insert(page, obj)
					ref[page] = fr
				}
				if arg&1 == 1 {
					p.markDirty(fr)
				}
			case 1:
				batch, gap := arg%4+1, (arg>>2)%3
				list := p.dirtyFromLRU(batch + gap)
				if len(list) > gap {
					for _, fr := range list[gap:] {
						p.markClean(fr)
					}
				}
			case 2:
				for _, fr := range p.allDirty() {
					p.markClean(fr)
				}
			case 3:
				if p.len() < 2 {
					continue
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("step %d: markDirty of the LRU frame did not panic", step)
						}
					}()
					p.markDirty(p.tail)
				}()
			}
			checkDirtyList(t, p, step)
			checkIndex(t, p, ref, neighbour, theirs, step)
		}
	})
}
