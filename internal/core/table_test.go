package core

import (
	"math/rand"
	"testing"

	"repro/internal/hint"
	"repro/internal/trace"
)

// storeConfig decodes a fuzz byte into a cache configuration: capacity 0, 1,
// small or large enough to take the table through several growths; the
// outqueue off, one entry or the default five per page; exact or top-2
// statistics; windows short enough to rotate within a run.
func storeConfig(b byte) Config {
	return Config{
		Capacity: []int{0, 1, 3, 24}[b&3],
		Noutq:    []int{NoOutqueue, 1, 0, NoOutqueue}[b>>2&3],
		TopK:     int(b>>4&1) * 2,
		Window:   16 << (b >> 5 & 3),
	}
}

// storeRequest decodes a fuzz byte pair into a request: 1024 pages in four
// regions of the high bits, the shape per-client page numbers take, four
// hint sets, and one write in four.
func storeRequest(lo, hi byte) trace.Request {
	op := trace.Read
	if hi>>4&3 == 0 {
		op = trace.Write
	}
	return trace.Request{Page: uint64(lo) | uint64(hi&3)<<40, Hint: hint.ID(hi >> 2 & 3), Op: op}
}

// storeBytes encodes a configuration byte and requests for storeRequest.
func storeBytes(cfg byte, reqs []trace.Request) []byte {
	out := []byte{cfg}
	for _, r := range reqs {
		hi := byte(r.Page>>40&3) | byte(r.Hint&3)<<2 | 1<<4
		if r.Op == trace.Write {
			hi &^= 3 << 4
		}
		out = append(out, byte(r.Page), hi)
	}
	return out
}

// storeWorkload is a request stream with something to learn: a hot set
// re-read under hint 1 that drifts over the pages, and a scan under hint 2
// (priorities then differ, so pages are admitted, evicted and outqueued),
// with some writes.
func storeWorkload(rng *rand.Rand, n int) []trace.Request {
	reqs := make([]trace.Request, n)
	for i := range reqs {
		r := trace.Request{Page: uint64(i/200*8+rng.Intn(24)) % 256, Hint: 1}
		if rng.Intn(2) == 0 {
			r = trace.Request{Page: uint64(24+rng.Intn(232)) | uint64(rng.Intn(4))<<40, Hint: 2}
		}
		if rng.Intn(6) == 0 {
			r.Op = trace.Write
		}
		reqs[i] = r
	}
	return reqs
}

// FuzzRecordStore is the differential test of the in-table record store
// against the slab-and-table store it replaced (refCache): random request
// streams through both, with equal verdicts and counts and a clean
// checkConsistency after every request. The page universe (1024 pages) is
// large enough to take the table through several growths and small enough
// that records are found again, runs wrap past slot n, and backward shifts
// cross that wrap.
func FuzzRecordStore(f *testing.F) {
	rng := rand.New(rand.NewSource(28))
	f.Add(storeBytes(0x00, storeWorkload(rng, 200)))  // capacity 0, no outqueue
	f.Add(storeBytes(0x13, storeWorkload(rng, 3000))) // large, no outqueue, top-2
	f.Add(storeBytes(0x2a, storeWorkload(rng, 3000))) // small, default outqueue
	f.Add(storeBytes(0x6b, storeWorkload(rng, 6000))) // large, default outqueue
	f.Add(storeBytes(0x45, storeWorkload(rng, 2000))) // one page, one-entry outqueue
	f.Add(storeBytes(0x37, storeWorkload(rng, 3000))) // large, one-entry outqueue, top-2
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		cfg := storeConfig(ops[0])
		c, ref := New(cfg), newRefCache(cfg)
		for n, reqs := 0, ops[1:]; len(reqs) >= 2; n, reqs = n+1, reqs[2:] {
			r := storeRequest(reqs[0], reqs[1])
			got, want := c.Access(r), ref.Access(r)
			if got != want || c.Len() != ref.cached || c.OutqueueLen() != ref.outSize || c.Evictions() != ref.evictions {
				t.Fatalf("%+v, request %d %+v: hit %v len %d outq %d evictions %d; reference %v %d %d %d",
					cfg, n, r, got, c.Len(), c.OutqueueLen(), c.Evictions(), want, ref.cached, ref.outSize, ref.evictions)
			}
			if err := c.checkConsistency(); err != nil {
				t.Fatalf("%+v, request %d %+v: %v", cfg, n, r, err)
			}
		}
	})
}

// pagesWithHome returns n distinct pages, none in skip, whose home among
// slots probe slots is want; it adds them to skip.
func pagesWithHome(slots, want uint32, n int, skip map[uint64]bool) []uint64 {
	var out []uint64
	for page := uint64(0); len(out) < n; page++ {
		if home(page, phi, slots) == want && !skip[page] {
			out = append(out, page)
			skip[page] = true
		}
	}
	return out
}

// TestPageTableWrapAround builds the run the fuzz target reaches only by
// chance: a probe run that starts in the last slot and continues at slot 1,
// two keys homed past the wrap queued behind it, and a key sitting in its
// own home slot at the run's end. The run's first record is cached; the
// records that shift back over it include cached ones (one at a group's
// head) and outqueued ones (the outqueue's head among them). Removing it
// must shift the run back across the wrap, keep every record reachable and
// every link pointing back, and leave the key that is already home where it
// is.
func TestPageTableWrapAround(t *testing.T) {
	c := New(Config{Capacity: 3, Noutq: 4, Window: 1 << 20})
	n := uint32(len(c.ents) - 1)
	used := map[uint64]bool{}
	run := pagesWithHome(n, n, 4, used)   // slots n, 1, 2, 3
	homed := pagesWithHome(n, 1, 2, used) // home 1: slots 4, 5
	fixed := pagesWithHome(n, 6, 1, used) // home 6: slot 6
	// run[0..2] fill the cache (run[0] and run[1] one group, run[2]
	// another); with no priorities learned yet the rest are not admitted and
	// queue in the outqueue, run[3] at its head.
	hints := []hint.ID{1, 1, 2, 3, 3, 3, 3}
	all := append(append(append([]uint64{}, run...), homed...), fixed...)
	for k, p := range all {
		c.Access(trace.Request{Page: p, Hint: hints[k]})
	}
	if len(c.ents)-1 != minTableSlots || c.Len() != 3 || c.OutqueueLen() != 4 {
		t.Fatalf("%d slots, %d cached, %d outqueued; the scenario needs %d, 3, 4", len(c.ents)-1, c.Len(), c.OutqueueLen(), minTableSlots)
	}
	at := func(slot uint32) uint64 {
		if !c.ents[slot].used {
			return 1 << 63 // no page in all is this
		}
		return c.ents[slot].page
	}
	if at(n) != run[0] || at(3) != run[3] || at(5) != homed[1] || at(6) != fixed[0] {
		t.Fatalf("layout is not the wrapped run expected: %+v", c.ents)
	}
	if !c.ents[n].cached || !c.ents[1].cached || c.groups[1].head != n || c.outHead != 3 {
		t.Fatalf("run[0] is not at its group's head before run[1], or run[3] not the outqueue's head")
	}

	drop := func(page uint64) {
		t.Helper()
		i := c.find(page)
		if i == 0 {
			t.Fatalf("page %#x has no record", page)
		}
		if c.ents[i].cached {
			c.removeFromGroup(i)
			c.cached--
		} else {
			c.outUnlink(i)
			c.outSize--
		}
		c.remove(i)
		if c.find(page) != 0 {
			t.Fatalf("page %#x still found after its removal", page)
		}
		if err := c.checkConsistency(); err != nil {
			t.Fatalf("after removing %#x: %v", page, err)
		}
	}
	drop(run[0])
	// run[1..3] moved back to n, 1, 2 and the homed keys to 3, 4; the hole
	// stops at 5 because the key in 6 may not move before its home.
	if at(n) != run[1] || at(1) != run[2] || at(2) != run[3] || at(3) != homed[0] || at(4) != homed[1] || c.ents[5].used || at(6) != fixed[0] {
		t.Fatalf("backward shift across the wrap left: %+v", c.ents)
	}
	if c.groups[1].head != n || c.groups[2].head != 1 || c.outHead != 2 {
		t.Fatalf("list heads not repointed: group 1 at %d, group 2 at %d, outqueue at %d", c.groups[1].head, c.groups[2].head, c.outHead)
	}
	for _, p := range []uint64{run[2], homed[1], run[1], fixed[0], run[3], homed[0]} {
		drop(p)
	}
	if c.Len() != 0 || c.OutqueueLen() != 0 {
		t.Fatalf("Len %d, OutqueueLen %d after removing everything", c.Len(), c.OutqueueLen())
	}
	for i := range c.ents {
		if c.ents[i] != (pageEntry{}) {
			t.Fatalf("slot %d is %+v after removing everything", i, c.ents[i])
		}
	}
}
