// Package spacesaving implements the Space-Saving frequent-item algorithm of
// Metwally, Agrawal and El Abbadi (ICDT '05) over flat storage: the counters
// sit in one contiguous slab, and the replacement victim comes from a lazily
// repaired min-heap instead of the paper's linked stream-summary.
//
// CLIC uses Space-Saving to bound the space needed to track hint-set
// statistics (paper §5): given a budget of k counters, the summary tracks at
// most k keys at once, replacing the key with the minimum count when a new
// key arrives and the summary is full. Each counter carries an
// application-defined auxiliary value V that is reset whenever the counter
// is recycled for a new key — CLIC stores its Nr and re-reference-distance
// accumulators there, so those statistics only cover the span during which
// the hint set was tracked, exactly as §5 prescribes.
//
// Cost. Incrementing a tracked key is O(1) and two stores on the counter's
// own cache line — Count++ and a stamp, the summary's observation number —
// and touches nothing else. A replacement is O(log k) amortised.
//
// Tie rule. The victim is the counter with the minimum Count and, among
// those, the most recently incremented one (the largest stamp; an increment's
// stamp is unique). That is what "head of the minimum bucket" meant in the
// stream-summary, where an incremented counter went to the head of its new
// bucket, and CLIC's replaying top-k goldens depend on it.
//
// Lazy heap. The heap orders slots by the (Count, stamp) each had when the
// heap last moved it, and increments do not tell it anything. That is sound
// because an increment only ever moves a counter later in victim order, so
// every counter's true position is at or after its recorded one: when the
// root's record is current (its stamp still matches) nothing can precede
// it, and when it is stale it is refreshed, sifted down and the new root
// examined. Each increment stales at most one record and each repair fixes
// one, which is where the amortised bound comes from.
//
// Storage. Keys are dense IDs (CLIC's interned hint IDs), so the key index
// is a slice of slots indexed by key, not a map. It is the only key→slot
// index, and Slot reads it cheaply enough to inline: a hot path counts a
// tracked key with Slot and Bump and leaves the rest to Touch. Nothing is
// sized from k, which is only the replacement threshold:
// the slab grows with the keys actually tracked, the index with the largest
// key seen, the heap is built at a window's first replacement, and Reset
// keeps all three for the next window, so a steady state allocates
// nothing. The slab moves when it grows, so callers hold slots — uint32
// slab indices, 0 meaning none — rather than pointers; a *Counter from At
// or Range is good until the next Touch or Open.
//
// Exact counting is the same summary with k above the number of distinct
// keys: it never replaces and every Err stays 0. Open, which tracks a key
// without counting an occurrence, is for such a summary.
package spacesaving

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Counter tracks one key. Count is the (over-)estimate of the key's
// frequency; Err bounds the over-estimation, so Count-Err is a guaranteed
// lower bound on the true frequency (the paper uses Count-Err as N(H)).
type Counter[K ~uint32, V any] struct {
	// Count and stamp lead the struct so that the two stores of an
	// increment share a cache line whatever K and V are.
	Count uint64
	stamp uint64 // Summary.observed as of the last increment
	Err   uint64
	Key   K
	// Val is application state attached to the tracked key. It is zeroed
	// whenever this counter is reassigned to a new key.
	Val V
}

// Guaranteed reports whether the key is guaranteed to have true frequency
// equal to Count (no over-estimation possible).
func (c *Counter[K, V]) Guaranteed() bool { return c.Err == 0 }

// heapEntry is one slot's place in the victim heap, with the counter's
// Count and stamp as of the last time the heap moved the entry.
type heapEntry struct {
	count, stamp uint64
	slot         uint32
}

// before returns 1 when a precedes b in victim order — lower count first,
// the more recently incremented first within a count — and 0 otherwise. It
// is one 128-bit comparison of (count, ^stamp) done as a borrow chain, so
// that a sift can pick a child by adding the result instead of branching on
// what is a coin flip.
func (a *heapEntry) before(b *heapEntry) int {
	_, borrow := bits.Sub64(b.stamp, a.stamp, 0)
	_, borrow = bits.Sub64(a.count, b.count, borrow)
	return int(borrow)
}

// Summary is a Space-Saving stream summary that tracks at most k keys. The
// zero value tracks nothing and only answers Slot (0 for every key); call
// New. Not safe for concurrent use.
type Summary[K ~uint32, V any] struct {
	// What Slot and Bump read leads, so that a summary held by value can
	// share its owner's hot cache line.
	index    []uint32        // slot by key, 0 = not tracked
	observed uint64          // Touch and Bump calls since the last Reset
	slab     []Counter[K, V] // slab[0] is unused: slot 0 means none
	heap     []heapEntry     // empty until the window's first replacement
	k        int
}

// New returns a summary that tracks at most k keys. It panics if k <= 0.
func New[K ~uint32, V any](k int) *Summary[K, V] {
	if k <= 0 {
		panic("spacesaving: k must be positive")
	}
	// Slots are uint32 and slot 0 is taken.
	k = int(min(uint64(k), math.MaxUint32-1))
	return &Summary[K, V]{k: k, slab: make([]Counter[K, V], 1)}
}

// K returns the counter capacity.
func (s *Summary[K, V]) K() int { return s.k }

// Len returns the number of keys currently tracked.
func (s *Summary[K, V]) Len() int { return len(s.slab) - 1 }

// Observed returns the number of Touch and Bump calls since construction or
// Reset.
func (s *Summary[K, V]) Observed() uint64 { return s.observed }

// Slot returns the slot of the counter tracking key, or 0 when the key is
// not tracked.
func (s *Summary[K, V]) Slot(key K) uint32 {
	// The local header spares the index load its own bounds check.
	if index := s.index; int(key) < len(index) {
		return index[key]
	}
	return 0
}

// Touch records one occurrence of key and returns the slot of the counter
// now tracking it. The counter's Val has been zeroed if the counter was
// newly assigned (fresh or recycled); a recycled counter's old key is no
// longer tracked.
func (s *Summary[K, V]) Touch(key K) uint32 {
	if slot := s.Slot(key); slot != 0 {
		s.Bump(slot)
		return slot
	}
	s.observed++
	slot := uint32(len(s.slab))
	if len(s.slab) <= s.k {
		s.slab = append(s.slab, Counter[K, V]{Key: key, Count: 1, stamp: s.observed})
	} else {
		// Full: the victim's count becomes the newcomer's error bound.
		slot = s.victim()
		c := &s.slab[slot]
		s.index[c.Key] = 0
		*c = Counter[K, V]{Key: key, Count: c.Count + 1, Err: c.Count, stamp: s.observed}
	}
	s.track(key, slot)
	return slot
}

// Open starts tracking key, which must not be tracked, at count 0 without
// recording an occurrence, and returns its slot. It never replaces: Open in
// a full summary panics. The counter has never been incremented, so it has
// no stamp (0), and its order among other opened counters still at count 0
// is unspecified.
func (s *Summary[K, V]) Open(key K) uint32 {
	if len(s.slab) > s.k {
		panic("spacesaving: Open on a full summary")
	}
	slot := uint32(len(s.slab))
	s.slab = append(s.slab, Counter[K, V]{Key: key})
	s.track(key, slot)
	return slot
}

// track indexes key at slot, growing the index to cover the key.
func (s *Summary[K, V]) track(key K, slot uint32) {
	if n := int(key) + 1; n > len(s.index) {
		s.index = append(s.index, make([]uint32, n-len(s.index))...)
	}
	s.index[key] = slot
}

// Bump records one occurrence of the key tracked in slot: Touch of that key
// for a caller that found its slot with Slot and so skips the lookup.
func (s *Summary[K, V]) Bump(slot uint32) {
	s.observed++
	c := &s.slab[slot]
	c.Count++
	c.stamp = s.observed
}

// At returns the counter in a slot Slot, Touch or Open returned.
func (s *Summary[K, V]) At(slot uint32) *Counter[K, V] { return &s.slab[slot] }

// Range calls fn for every tracked counter, in unspecified order. Unlike
// Counters it allocates nothing; fn must not mutate the summary.
func (s *Summary[K, V]) Range(fn func(c *Counter[K, V])) {
	for i := 1; i < len(s.slab); i++ {
		fn(&s.slab[i])
	}
}

// Counters returns a copy of all tracked counters in descending count
// order, the most recently incremented first within a count.
func (s *Summary[K, V]) Counters() []Counter[K, V] {
	out := slices.Clone(s.slab[1:])
	slices.SortFunc(out, func(a, b Counter[K, V]) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(b.stamp, a.stamp))
	})
	return out
}

// Reset discards all counters and statistics, returning the summary to its
// freshly-constructed state. CLIC resets the summary at every request-window
// boundary (paper §5). Slab, index and heap keep their storage, so a steady
// state of repeated windows allocates nothing, and only the index entries of
// tracked keys are cleared, so a window costs what it tracked, not the key
// space.
func (s *Summary[K, V]) Reset() {
	for i := 1; i < len(s.slab); i++ {
		s.index[s.slab[i].Key] = 0
	}
	clear(s.slab) // drop what Val may reference
	s.slab = s.slab[:1]
	s.heap = s.heap[:0]
	s.observed = 0
}

// victim returns the slot of the counter to replace: minimum Count, ties to
// the most recently incremented. Called only when the summary is full.
func (s *Summary[K, V]) victim() uint32 {
	if len(s.heap) == 0 {
		s.heapify()
	}
	h := s.heap
	for {
		c := &s.slab[h[0].slot]
		if h[0].stamp == c.stamp {
			return h[0].slot
		}
		h[0].count, h[0].stamp = c.Count, c.stamp
		siftDown(h, 0)
	}
}

// heapify builds the heap over every slot from the counters as they stand.
func (s *Summary[K, V]) heapify() {
	for i := 1; i < len(s.slab); i++ {
		c := &s.slab[i]
		s.heap = append(s.heap, heapEntry{count: c.Count, stamp: c.stamp, slot: uint32(i)})
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		siftDown(s.heap, i)
	}
}

// siftDown restores heap order below h[start], bottom-up: the entry being
// placed is nearly always a just-incremented root that belongs near the
// leaves, so the hole descends along the smaller children all the way, one
// comparison a level, and the entry then climbs back to its place.
func siftDown(h []heapEntry, start int) {
	e := h[start]
	i := start
	for kid := 2*i + 1; kid < len(h); kid = 2*i + 1 {
		if r := kid + 1; r < len(h) {
			kid += h[r].before(&h[kid])
		}
		h[i] = h[kid]
		i = kid
	}
	for i > start {
		parent := (i - 1) >> 1
		if e.before(&h[parent]) == 0 {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}
