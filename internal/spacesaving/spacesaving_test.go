package spacesaving

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

// Keys a, b, c and d, for the tests that spell out a stream.
const (
	a uint32 = iota
	b
	c
	d
)

func TestExactWhenUnderCapacity(t *testing.T) {
	s := New[uint32, int](10)
	stream := []uint32{a, b, a, c, a, b}
	for _, k := range stream {
		s.Touch(k)
	}
	want := map[uint32]uint64{a: 3, b: 2, c: 1}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	if slot := s.Slot(d); slot != 0 {
		t.Errorf("untouched key d has slot %d", slot)
	}
	for k, n := range want {
		slot := s.Slot(k)
		if slot == 0 {
			t.Fatalf("key %d not tracked", k)
		}
		if ctr := s.At(slot); ctr.Count != n || ctr.Err != 0 || !ctr.Guaranteed() {
			t.Errorf("key %d: count=%d err=%d, want count=%d err=0", k, ctr.Count, ctr.Err, n)
		}
	}
}

func TestEvictsMinimumOnOverflow(t *testing.T) {
	s := New[uint32, int](2)
	s.Touch(a)
	s.Touch(a)
	bSlot := s.Touch(b)
	slot := s.Touch(c)
	if slot != bSlot || s.Slot(b) != 0 || s.Slot(a) == 0 {
		t.Fatalf("expected b (the minimum) to be replaced: c took slot %d, b had %d; slots now a %d, b %d",
			slot, bSlot, s.Slot(a), s.Slot(b))
	}
	ctr := s.At(slot)
	// c inherits b's count as error: count = min+1 = 2, err = 1.
	if ctr.Count != 2 || ctr.Err != 1 {
		t.Errorf("recycled counter: count=%d err=%d, want 2,1", ctr.Count, ctr.Err)
	}
	if ctr.Guaranteed() {
		t.Error("recycled counter must not be guaranteed")
	}
}

func TestValResetOnRecycle(t *testing.T) {
	s := New[uint32, int](1)
	s.At(s.Touch(a)).Val = 99
	slot := s.Touch(b)
	if s.Slot(a) != 0 || s.At(slot).Key != b {
		t.Fatalf("expected a replaced by b, slot %d holds %d", slot, s.At(slot).Key)
	}
	if v := s.At(slot).Val; v != 0 {
		t.Errorf("Val not reset on recycle: %d", v)
	}
}

// TestOpen pins Open: it tracks a key at count 0 without observing an
// occurrence, later touches count from there with no error, and a full
// summary refuses a new key.
func TestOpen(t *testing.T) {
	s := New[uint32, int](2)
	s.Touch(a)
	slot := s.Open(b)
	if ctr := s.At(slot); slot == 0 || ctr.Key != b || ctr.Count != 0 || ctr.Err != 0 || s.Len() != 2 || s.Observed() != 1 {
		t.Fatalf("Open(b): slot %d, counter %+v, Len %d, Observed %d", slot, *ctr, s.Len(), s.Observed())
	}
	if s.Touch(b) != slot || s.At(slot).Count != 1 || s.At(slot).Err != 0 {
		t.Errorf("Touch after Open: counter %+v", *s.At(slot))
	}
	defer func() {
		if recover() == nil {
			t.Error("Open of a new key in a full summary should panic")
		}
	}()
	s.Open(c)
}

func TestCountersDescending(t *testing.T) {
	s := New[uint32, struct{}](10)
	for i := uint32(0); i < 5; i++ {
		for j := uint32(0); j <= i; j++ {
			s.Touch(i)
		}
	}
	cs := s.Counters()
	if len(cs) != 5 {
		t.Fatalf("Counters returned %d entries", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].Count > cs[i-1].Count {
			t.Fatalf("Counters not descending: %d after %d", cs[i].Count, cs[i-1].Count)
		}
	}
	if cs[0].Key != 4 || cs[0].Count != 5 {
		t.Errorf("top counter = %v/%d, want key 4 count 5", cs[0].Key, cs[0].Count)
	}
}

func TestReset(t *testing.T) {
	s := New[uint32, int](4)
	s.Touch(a)
	s.Touch(b)
	s.Reset()
	if s.Len() != 0 || s.Observed() != 0 || s.Slot(a) != 0 || s.Slot(b) != 0 {
		t.Fatalf("Reset left Len=%d Observed=%d, slots a %d, b %d", s.Len(), s.Observed(), s.Slot(a), s.Slot(b))
	}
	if ctr := s.At(s.Touch(a)); ctr.Count != 1 || ctr.Err != 0 {
		t.Errorf("post-reset counter: count=%d err=%d", ctr.Count, ctr.Err)
	}
}

func TestPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New[uint32, int](0)
}

// TestSpaceSavingGuarantees property-tests the algorithm's published
// guarantees against exact counts on random skewed streams:
//
//  1. count overestimates: true ≤ Count, and Count - Err ≤ true
//  2. any key with true frequency > N/k is tracked
//  3. at most k keys are tracked
func TestSpaceSavingGuarantees(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		s := New[uint32, struct{}](k)
		truth := make(map[uint32]uint64)
		n := 500 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			// Skewed stream over up to 60 keys.
			key := uint32(float64(60) * rng.Float64() * rng.Float64())
			truth[key]++
			s.Touch(key)
		}
		if s.Len() > k {
			return false
		}
		for _, c := range s.Counters() {
			if truth[c.Key] > c.Count {
				return false // Count must overestimate
			}
			if c.Count-c.Err > truth[c.Key] {
				return false // Count-Err must underestimate
			}
		}
		threshold := uint64(n / k)
		for key, cnt := range truth {
			if cnt > threshold {
				if s.Slot(key) == 0 {
					return false // frequent item guarantee
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKRecall checks that on a heavily skewed stream the summary's top
// counters correspond to the actual most frequent keys.
func TestTopKRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New[uint32, struct{}](20)
	truth := make(map[uint32]int)
	for i := 0; i < 100000; i++ {
		// Zipf-ish: key i with weight ~ 1/(i+1).
		key := uint32(rng.ExpFloat64() * 3)
		if key > 200 {
			key = 200
		}
		truth[key]++
		s.Touch(key)
	}
	type kv struct {
		k uint32
		n int
	}
	var exact []kv
	for k, n := range truth {
		exact = append(exact, kv{k, n})
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i].n > exact[j].n })
	// The true top 10 should all be tracked.
	for _, e := range exact[:10] {
		if s.Slot(e.k) == 0 {
			t.Errorf("true top-10 key %d (count %d) not tracked", e.k, e.n)
		}
	}
}

func TestObserved(t *testing.T) {
	s := New[uint32, struct{}](3)
	for i := uint32(0); i < 25; i++ {
		s.Touch(i % 7)
	}
	if s.Observed() != 25 {
		t.Errorf("Observed = %d, want 25", s.Observed())
	}
}

// zipfKeys returns 1<<16 draws from a Zipf distribution (s = 1.1) over the
// given number of keys.
func zipfKeys(universe int) []uint32 {
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(universe-1))
	keys := make([]uint32, 1<<16)
	for i := range keys {
		keys[i] = uint32(zipf.Uint64())
	}
	return keys
}

// benchWindow is how often the benchmarks Reset, as CLIC does at every
// statistics window; the benchmark's own W.
const benchWindow = 50000

// benchTouch prices Touch over keys with k = 100, on the flat summary and
// on the stream-summary it replaced (reference_test.go), in one binary. The
// two loops are spelled out rather than shared through a closure: an
// indirect call is a quarter of what the tracked path costs.
func benchTouch(b *testing.B, keys []uint32) {
	b.Run("flat", func(b *testing.B) {
		s := New[uint32, struct{}](100)
		replacements := 0
		for i := 0; i < b.N; i++ {
			key := keys[i%len(keys)]
			if s.Slot(key) == 0 && s.Len() == s.K() {
				replacements++
			}
			s.Touch(key)
			if (i+1)%benchWindow == 0 {
				s.Reset()
			}
		}
		b.ReportMetric(float64(replacements)/float64(b.N), "replacements/op")
	})
	b.Run("stream-summary", func(b *testing.B) {
		s := newRef[uint32, struct{}](100)
		replacements := 0
		for i := 0; i < b.N; i++ {
			if _, _, replaced := s.Touch(keys[i%len(keys)]); replaced {
				replacements++
			}
			if (i+1)%benchWindow == 0 {
				s.Reset()
			}
		}
		b.ReportMetric(float64(replacements)/float64(b.N), "replacements/op")
	})
}

// BenchmarkTouchTracked is the regime the repository benchmark runs in:
// fewer keys than counters, so every touch after a window's first few is an
// increment of a tracked key and nothing is replaced.
func BenchmarkTouchTracked(b *testing.B) { benchTouch(b, zipfKeys(60)) }

// BenchmarkTouchReplacing is the other regime: 5000 keys over 100 counters,
// so a large share of touches replaces the minimum.
func BenchmarkTouchReplacing(b *testing.B) { benchTouch(b, zipfKeys(5000)) }

// TestNewAllocatesNothingFromK pins that k is only a threshold: a summary
// allowed two billion keys costs what its three tracked keys cost.
func TestNewAllocatesNothingFromK(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := New[uint32, [2]uint64](1 << 31)
	for key := uint32(0); key < 3; key++ {
		s.Touch(key)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("New(1<<31) and three touches allocated %d bytes, want at most 64 KB", got)
	}
	if s.Len() != 3 || s.K() != 1<<31 {
		t.Errorf("Len = %d, K = %d", s.Len(), s.K())
	}
}

// TestSummarySteadyStateAllocs pins that once a first window has grown the
// slab, the key index and the heap, further windows — touches of new and of
// tracked keys, bumps, replacements, Range and the Reset between windows —
// allocate nothing.
func TestSummarySteadyStateAllocs(t *testing.T) {
	keys := zipfKeys(400)[:5000]
	s := New[uint32, uint64](16)
	var replacements, visited int
	window := func() {
		var last uint32
		for i, key := range keys {
			if s.Slot(key) == 0 && s.Len() == s.K() {
				replacements++
			}
			slot := s.Touch(key)
			if i%4 == 0 {
				s.Bump(slot)
			}
			last = slot
		}
		s.Bump(last)
		s.Range(func(*Counter[uint32, uint64]) { visited++ })
		s.Reset()
	}
	window()
	if replacements == 0 || visited != s.K() {
		t.Fatalf("first window: %d replacements, %d counters visited", replacements, visited)
	}
	if n := testing.AllocsPerRun(3, window); n != 0 {
		t.Errorf("%v allocations per window in steady state, want 0", n)
	}
}

// TestBumpMatchesTouch drives two summaries with one stream, one through
// Touch alone and one through Slot and Bump for a tracked key (the way a
// lone clicstats Learner counts an arrival), across overflow churn and a
// Reset: the summaries must stay identical.
func TestBumpMatchesTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	plain := New[uint32, int](8)
	indexed := New[uint32, int](8)
	for i := 0; i < 5000; i++ {
		if i == 2500 {
			plain.Reset()
			indexed.Reset()
		}
		k := uint32(rng.Intn(6))
		if rng.Intn(3) == 0 {
			k = uint32(rng.Intn(40))
		}
		plain.Touch(k)
		if slot := indexed.Slot(k); slot != 0 {
			indexed.Bump(slot)
		} else {
			indexed.Touch(k)
		}
		if plain.Observed() != indexed.Observed() {
			t.Fatalf("step %d: observed %d vs %d", i, plain.Observed(), indexed.Observed())
		}
		a, b := plain.Counters(), indexed.Counters()
		if len(a) != len(b) {
			t.Fatalf("step %d: %d vs %d counters", i, len(a), len(b))
		}
		for j := range a {
			if a[j].Key != b[j].Key || a[j].Count != b[j].Count || a[j].Err != b[j].Err {
				t.Fatalf("step %d, counter %d: %+v vs %+v", i, j, a[j], b[j])
			}
		}
	}
}
