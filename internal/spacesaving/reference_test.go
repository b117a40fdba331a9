// The pointer-linked stream-summary this package used through PR 18, kept
// verbatim (types renamed ref*) as the oracle the flat Summary is compared
// against step for step: counters hang off buckets of equal count in a
// doubly-linked list, a replacement recycles the head of the minimum bucket,
// and every increment detaches a counter from one bucket and attaches it at
// the head of the next.

package spacesaving

// refCounter tracks one key. Count is the (over-)estimate of the key's
// frequency; Err bounds the over-estimation, so Count-Err is a guaranteed
// lower bound on the true frequency (the paper uses Count-Err as N(H)).
type refCounter[K comparable, V any] struct {
	Key   K
	Count uint64
	Err   uint64
	// Val is application state attached to the tracked key. It is zeroed
	// whenever this counter is reassigned to a new key.
	Val V

	bucket     *refBucket[K, V]
	prev, next *refCounter[K, V] // siblings within the same bucket
}

// Guaranteed reports whether the key is guaranteed to have true frequency
// equal to Count (no over-estimation possible).
func (c *refCounter[K, V]) Guaranteed() bool { return c.Err == 0 }

// refBucket groups all counters that share the same count, and lives in a
// doubly-linked list of buckets in strictly ascending count order.
type refBucket[K comparable, V any] struct {
	count      uint64
	head       *refCounter[K, V] // any counter in this bucket
	prev, next *refBucket[K, V]
}

// refSummary is a Space-Saving stream summary with capacity for k counters.
// The zero value is not usable; call newRef. Not safe for concurrent use.
type refSummary[K comparable, V any] struct {
	k        int
	counters map[K]*refCounter[K, V]
	min      *refBucket[K, V] // bucket list head (minimum count); nil when empty
	observed uint64           // total number of Touch calls since last Reset

	// Free lists. Buckets are created and pruned on almost every increment
	// (counts are dense, so a counter usually moves into a bucket of its
	// own) and the whole structure is torn down every window Reset;
	// recycling both keeps the steady-state Touch path allocation-free.
	freeBuckets  *refBucket[K, V]
	freeCounters *refCounter[K, V]
}

// newRef returns a summary that tracks at most k keys. It panics if k <= 0.
func newRef[K comparable, V any](k int) *refSummary[K, V] {
	if k <= 0 {
		panic("spacesaving: k must be positive")
	}
	return &refSummary[K, V]{k: k, counters: make(map[K]*refCounter[K, V], k)}
}

// K returns the counter capacity.
func (s *refSummary[K, V]) K() int { return s.k }

// Len returns the number of keys currently tracked.
func (s *refSummary[K, V]) Len() int { return len(s.counters) }

// Observed returns the number of Touch calls since construction or Reset.
func (s *refSummary[K, V]) Observed() uint64 { return s.observed }

// Touch records one occurrence of key. It returns the counter now tracking
// the key and, when tracking it required evicting another key, that key and
// replaced=true. The returned counter's Val has been zeroed if the counter
// was newly assigned (fresh or recycled).
func (s *refSummary[K, V]) Touch(key K) (c *refCounter[K, V], replacedKey K, replaced bool) {
	s.observed++
	if c, ok := s.counters[key]; ok {
		s.increment(c)
		return c, replacedKey, false
	}
	if len(s.counters) < s.k {
		c := s.newCounter(key)
		s.counters[key] = c
		s.insertWithCount(c, 0)
		s.increment(c)
		return c, replacedKey, false
	}
	// Full: recycle a counter from the minimum bucket.
	c = s.min.head
	replacedKey = c.Key
	replaced = true
	delete(s.counters, c.Key)
	c.Key = key
	c.Err = c.count()
	var zero V
	c.Val = zero
	s.counters[key] = c
	s.increment(c)
	return c, replacedKey, replaced
}

// Bump records one occurrence of the key c tracks: Touch(c.Key) for a
// caller that kept the counter Touch returned and so can skip the lookup.
// c must still be tracking its key — Touch reports the key it replaces, and
// Reset replaces them all.
func (s *refSummary[K, V]) Bump(c *refCounter[K, V]) {
	s.observed++
	s.increment(c)
}

// Get returns the counter for key if it is currently tracked.
func (s *refSummary[K, V]) Get(key K) (*refCounter[K, V], bool) {
	c, ok := s.counters[key]
	return c, ok
}

// Range calls fn for every tracked counter, in bucket order (ascending
// count, unspecified within a bucket). Unlike Counters it allocates
// nothing; fn must not mutate the summary.
func (s *refSummary[K, V]) Range(fn func(c *refCounter[K, V])) {
	for b := s.min; b != nil; b = b.next {
		for c := b.head; c != nil; c = c.next {
			fn(c)
		}
	}
}

// Counters returns all tracked counters in descending count order.
func (s *refSummary[K, V]) Counters() []*refCounter[K, V] {
	out := make([]*refCounter[K, V], 0, len(s.counters))
	// Find the maximum bucket by walking from min; bucket count is small in
	// the worst case equal to number of distinct counts <= k.
	var last *refBucket[K, V]
	for b := s.min; b != nil; b = b.next {
		last = b
	}
	for b := last; b != nil; b = b.prev {
		for c := b.head; c != nil; c = c.next {
			out = append(out, c)
		}
	}
	return out
}

// Reset discards all counters and statistics, returning the summary to its
// freshly-constructed state. CLIC resets the summary at every request-window
// boundary (paper §5). Counters and buckets are recycled onto the free
// lists, so a steady state of repeated windows allocates nothing.
func (s *refSummary[K, V]) Reset() {
	for b := s.min; b != nil; {
		for c := b.head; c != nil; {
			next := c.next
			s.recycleCounter(c)
			c = next
		}
		next := b.next
		s.recycleBucket(b)
		b = next
	}
	clear(s.counters)
	s.min = nil
	s.observed = 0
}

// newCounter takes a counter from the free list (or allocates one) and
// initializes it for key.
func (s *refSummary[K, V]) newCounter(key K) *refCounter[K, V] {
	c := s.freeCounters
	if c == nil {
		return &refCounter[K, V]{Key: key}
	}
	s.freeCounters = c.next
	var zero V
	*c = refCounter[K, V]{Key: key, Val: zero}
	return c
}

func (s *refSummary[K, V]) recycleCounter(c *refCounter[K, V]) {
	c.bucket, c.prev = nil, nil
	c.next = s.freeCounters
	s.freeCounters = c
}

// newBucket takes a bucket from the free list (or allocates one).
func (s *refSummary[K, V]) newBucket(count uint64, prev, next *refBucket[K, V]) *refBucket[K, V] {
	b := s.freeBuckets
	if b == nil {
		return &refBucket[K, V]{count: count, prev: prev, next: next}
	}
	s.freeBuckets = b.next
	*b = refBucket[K, V]{count: count, prev: prev, next: next}
	return b
}

func (s *refSummary[K, V]) recycleBucket(b *refBucket[K, V]) {
	b.head, b.prev = nil, nil
	b.next = s.freeBuckets
	s.freeBuckets = b
}

func (c *refCounter[K, V]) count() uint64 {
	if c.bucket == nil {
		return 0
	}
	return c.bucket.count
}

// increment moves c from its bucket to the bucket with count+1, creating
// and pruning buckets as needed. All operations are O(1).
func (s *refSummary[K, V]) increment(c *refCounter[K, V]) {
	old := c.bucket
	newCount := old.count + 1
	// Find or create the destination bucket, which if it exists is old.next.
	dst := old.next
	if dst == nil || dst.count != newCount {
		nb := s.newBucket(newCount, old, old.next)
		if old.next != nil {
			old.next.prev = nb
		}
		old.next = nb
		dst = nb
	}
	s.detach(c)
	s.attach(c, dst)
	c.Count = newCount
	if old.head == nil {
		s.removeBucket(old)
		s.recycleBucket(old)
	}
}

// insertWithCount places a fresh counter into the bucket for the given
// count (creating the bucket at the front if needed). Used only with
// count 0 for new counters; increment immediately moves them to 1.
func (s *refSummary[K, V]) insertWithCount(c *refCounter[K, V], count uint64) {
	b := s.min
	if b == nil || b.count != count {
		nb := s.newBucket(count, nil, s.min)
		if s.min != nil {
			s.min.prev = nb
		}
		s.min = nb
		b = nb
	}
	s.attach(c, b)
	c.Count = count
}

func (s *refSummary[K, V]) attach(c *refCounter[K, V], b *refBucket[K, V]) {
	c.bucket = b
	c.prev = nil
	c.next = b.head
	if b.head != nil {
		b.head.prev = c
	}
	b.head = c
}

func (s *refSummary[K, V]) detach(c *refCounter[K, V]) {
	b := c.bucket
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		b.head = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	}
	c.prev, c.next, c.bucket = nil, nil, nil
}

func (s *refSummary[K, V]) removeBucket(b *refBucket[K, V]) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		s.min = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
}
