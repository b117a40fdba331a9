package core

import (
	"math/rand"
	"testing"
)

// tableModel drives a pageTable next to the Go map it replaces. The slab
// holds only page numbers — all the table reads of it.
type tableModel struct {
	t     pageTable
	ents  []pageEntry
	want  map[uint64]uint32
	freed []uint32
}

func newTableModel() *tableModel {
	m := &tableModel{ents: make([]pageEntry, 1), want: map[uint64]uint32{}}
	m.t.init()
	return m
}

func (m *tableModel) put(page uint64) {
	if _, ok := m.want[page]; ok {
		return
	}
	var idx uint32
	if n := len(m.freed); n > 0 {
		idx, m.freed = m.freed[n-1], m.freed[:n-1]
	} else {
		m.ents = append(m.ents, pageEntry{})
		idx = uint32(len(m.ents) - 1)
	}
	m.ents[idx].page = page
	m.t.insert(page, idx)
	m.want[page] = idx
}

func (m *tableModel) del(page uint64) {
	idx, ok := m.want[page]
	if !ok {
		return
	}
	m.t.remove(page, idx)
	delete(m.want, page)
	m.freed = append(m.freed, idx)
}

// check compares the table with the map: same size, same mapping, no slot
// unaccounted for, load within bounds.
func (m *tableModel) check(t *testing.T, probes []uint64) {
	t.Helper()
	if m.t.n != len(m.want) {
		t.Fatalf("table n = %d, map has %d", m.t.n, len(m.want))
	}
	used := 0
	for _, s := range m.t.slots {
		if s != 0 {
			used++
		}
	}
	if used != m.t.n || used*4 > len(m.t.slots)*3 {
		t.Fatalf("%d of %d slots used, n = %d", used, len(m.t.slots), m.t.n)
	}
	for page, idx := range m.want {
		if got := m.t.find(m.ents, page); got != idx {
			t.Fatalf("find(%#x) = %d, map says %d", page, got, idx)
		}
	}
	for _, page := range probes {
		if got := m.t.find(m.ents, page); got != m.want[page] {
			t.Fatalf("find(%#x) = %d, map says %d", page, got, m.want[page])
		}
	}
}

// tablePage spreads a fuzz byte pair over the shapes real page numbers
// take: small sequential numbers, and per-client regions in the high bits.
func tablePage(lo, hi byte) uint64 {
	return uint64(lo) | uint64(hi&3)<<44 | uint64(hi>>6)<<8
}

// FuzzPageTable is the differential test of the page table against a Go
// map: random put/get/delete streams, with a check of the whole mapping
// after every step. The key universe (4K pages) is large enough to
// take the table through several doublings and small enough that deletes hit
// live keys, runs wrap around the end of the slot array, and backward
// shifts cross that wrap.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 1, 0, 1, 1, 0})
	// Fill, delete every other key, refill: growth, then long shifts.
	var fill []byte
	for i := 0; i < 200; i++ {
		fill = append(fill, 0, byte(i), byte(i>>2))
	}
	for i := 0; i < 200; i += 2 {
		fill = append(fill, 2, byte(i), byte(i>>2))
	}
	for i := 0; i < 200; i++ {
		fill = append(fill, 0, byte(i), byte(i>>1))
	}
	f.Add(fill)
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{300, 3000, 12000} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newTableModel()
		for ; len(ops) >= 3; ops = ops[3:] {
			page := tablePage(ops[1], ops[2])
			switch ops[0] % 3 {
			case 0:
				m.put(page)
			case 1: // get: check probes it below
			case 2:
				m.del(page)
			}
			m.check(t, []uint64{page, page + 1, page ^ 1<<44})
		}
	})
}

// pagesWithHome returns n distinct pages whose home slot in t is home.
func pagesWithHome(t *pageTable, home uint32, n int) []uint64 {
	var out []uint64
	for page := uint64(0); len(out) < n; page++ {
		if pageTag(page)>>t.shift == home {
			out = append(out, page)
		}
	}
	return out
}

// TestPageTableWrapAround builds the run the fuzz target reaches only by
// chance: a probe run that starts in the last slot and continues at slot 0,
// two keys homed past the wrap queued behind it, and a key sitting in its
// own home slot at the run's end. Removing the run's first key must shift
// the run back across the wrap, keep every key reachable, and leave the
// key that is already home where it is.
func TestPageTableWrapAround(t *testing.T) {
	m := newTableModel()
	last := uint32(len(m.t.slots) - 1)
	run := pagesWithHome(&m.t, last, 4) // slots last, 0, 1, 2
	homed := pagesWithHome(&m.t, 1, 2)  // home 1: slots 3, 4
	fixed := pagesWithHome(&m.t, 5, 1)  // home 5: slot 5
	all := append(append(append([]uint64{}, run...), homed...), fixed...)
	for _, p := range all {
		m.put(p)
	}
	if len(m.t.slots) != minTableSlots {
		t.Fatalf("table grew to %d slots; the scenario needs the initial %d", len(m.t.slots), minTableSlots)
	}
	at := func(slot uint32) uint32 { return uint32(m.t.slots[slot]) }
	if at(last) != m.want[run[0]] || at(2) != m.want[run[3]] || at(4) != m.want[homed[1]] || at(5) != m.want[fixed[0]] {
		t.Fatalf("layout is not the wrapped run expected: %x", m.t.slots)
	}
	m.del(run[0])
	m.check(t, all)
	// run[1..3] moved back to last, 0, 1 and the homed keys to 2, 3; the
	// hole stops at 4 because the key in 5 may not move before its home.
	if at(last) != m.want[run[1]] || at(2) != m.want[homed[0]] || at(4) != 0 || at(5) != m.want[fixed[0]] {
		t.Fatalf("backward shift across the wrap left: %x", m.t.slots)
	}
	for _, p := range []uint64{run[2], homed[1], run[1], fixed[0], run[3], homed[0]} {
		m.del(p)
		m.check(t, all)
	}
	if m.t.n != 0 {
		t.Fatalf("n = %d after removing everything", m.t.n)
	}
}
