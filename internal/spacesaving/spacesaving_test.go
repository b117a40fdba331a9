package spacesaving

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestExactWhenUnderCapacity(t *testing.T) {
	s := New[string, int](10)
	stream := []string{"a", "b", "a", "c", "a", "b"}
	for _, k := range stream {
		s.Touch(k)
	}
	want := map[string]uint64{"a": 3, "b": 2, "c": 1}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	for k, n := range want {
		c, ok := s.Get(k)
		if !ok {
			t.Fatalf("key %q not tracked", k)
		}
		if c.Count != n || c.Err != 0 || !c.Guaranteed() {
			t.Errorf("key %q: count=%d err=%d, want count=%d err=0", k, c.Count, c.Err, n)
		}
	}
}

func TestEvictsMinimumOnOverflow(t *testing.T) {
	s := New[string, int](2)
	s.Touch("a")
	s.Touch("a")
	s.Touch("b")
	slot, replacedKey, replaced := s.Touch("c")
	if !replaced || replacedKey != "b" {
		t.Fatalf("expected b (the minimum) to be replaced, got %q (replaced=%v)", replacedKey, replaced)
	}
	c := s.At(slot)
	// c inherits b's count as error: count = min+1 = 2, err = 1.
	if c.Count != 2 || c.Err != 1 {
		t.Errorf("recycled counter: count=%d err=%d, want 2,1", c.Count, c.Err)
	}
	if c.Guaranteed() {
		t.Error("recycled counter must not be guaranteed")
	}
}

func TestValResetOnRecycle(t *testing.T) {
	s := New[string, int](1)
	slot, _, _ := s.Touch("a")
	s.At(slot).Val = 99
	slot, old, replaced := s.Touch("b")
	if !replaced || old != "a" {
		t.Fatalf("expected a replaced, got %q", old)
	}
	if v := s.At(slot).Val; v != 0 {
		t.Errorf("Val not reset on recycle: %d", v)
	}
}

func TestCountersDescending(t *testing.T) {
	s := New[int, struct{}](10)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
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
	s := New[string, int](4)
	s.Touch("a")
	s.Touch("b")
	s.Reset()
	if s.Len() != 0 || s.Observed() != 0 {
		t.Fatalf("Reset left Len=%d Observed=%d", s.Len(), s.Observed())
	}
	slot, _, _ := s.Touch("a")
	if c := s.At(slot); c.Count != 1 || c.Err != 0 {
		t.Errorf("post-reset counter: count=%d err=%d", c.Count, c.Err)
	}
}

func TestPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New[int, int](0)
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
		s := New[int, struct{}](k)
		truth := make(map[int]uint64)
		n := 500 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			// Skewed stream over up to 60 keys.
			key := int(float64(60) * rng.Float64() * rng.Float64())
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
				if _, ok := s.Get(key); !ok {
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
	s := New[int, struct{}](20)
	truth := make(map[int]int)
	for i := 0; i < 100000; i++ {
		// Zipf-ish: key i with weight ~ 1/(i+1).
		key := int(rng.ExpFloat64() * 3)
		if key > 200 {
			key = 200
		}
		truth[key]++
		s.Touch(key)
	}
	type kv struct{ k, n int }
	var exact []kv
	for k, n := range truth {
		exact = append(exact, kv{k, n})
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i].n > exact[j].n })
	// The true top 10 should all be tracked.
	for _, e := range exact[:10] {
		if _, ok := s.Get(e.k); !ok {
			t.Errorf("true top-10 key %d (count %d) not tracked", e.k, e.n)
		}
	}
}

func TestObserved(t *testing.T) {
	s := New[int, struct{}](3)
	for i := 0; i < 25; i++ {
		s.Touch(i % 7)
	}
	if s.Observed() != 25 {
		t.Errorf("Observed = %d, want 25", s.Observed())
	}
}

// zipfKeys returns 1<<16 draws from a Zipf distribution (s = 1.1) over the
// given number of keys.
func zipfKeys(universe int) []int {
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(universe-1))
	keys := make([]int, 1<<16)
	for i := range keys {
		keys[i] = int(zipf.Uint64())
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
func benchTouch(b *testing.B, keys []int) {
	b.Run("flat", func(b *testing.B) {
		s := New[int, struct{}](100)
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
	b.Run("stream-summary", func(b *testing.B) {
		s := newRef[int, struct{}](100)
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
	s := New[int, uint64](16)
	var replacements, visited int
	window := func() {
		var last uint32
		for i, key := range keys {
			slot, _, replaced := s.Touch(key)
			if replaced {
				replacements++
			}
			if i%4 == 0 {
				s.Bump(slot)
			}
			last = slot
		}
		s.Bump(last)
		s.Range(func(*Counter[int, uint64]) { visited++ })
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
// Touch alone and one through a caller-side index of the slots Touch
// returned (the way clicstats' window uses Bump), across overflow churn and
// a Reset: the summaries must stay identical.
func TestBumpMatchesTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	plain := New[int, int](8)
	indexed := New[int, int](8)
	index := map[int]uint32{}
	for i := 0; i < 5000; i++ {
		if i == 2500 {
			plain.Reset()
			indexed.Reset()
			clear(index)
		}
		k := rng.Intn(6)
		if rng.Intn(3) == 0 {
			k = rng.Intn(40)
		}
		plain.Touch(k)
		if slot := index[k]; slot != 0 {
			indexed.Bump(slot)
		} else {
			slot, old, replaced := indexed.Touch(k)
			if replaced {
				delete(index, old)
			}
			index[k] = slot
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
