package spacesaving

import (
	"math/rand"
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
	c, replacedKey, replaced := s.Touch("c")
	if !replaced || replacedKey != "b" {
		t.Fatalf("expected b (the minimum) to be replaced, got %q (replaced=%v)", replacedKey, replaced)
	}
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
	c, _, _ := s.Touch("a")
	c.Val = 99
	c2, old, replaced := s.Touch("b")
	if !replaced || old != "a" {
		t.Fatalf("expected a replaced, got %q", old)
	}
	if c2.Val != 0 {
		t.Errorf("Val not reset on recycle: %d", c2.Val)
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
	c, _, _ := s.Touch("a")
	if c.Count != 1 || c.Err != 0 {
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

func BenchmarkTouch(b *testing.B) {
	s := New[int, struct{}](100)
	rng := rand.New(rand.NewSource(1))
	keys := make([]int, 4096)
	for i := range keys {
		keys[i] = int(float64(1000) * rng.Float64() * rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Touch(keys[i%len(keys)])
	}
}

// TestBumpMatchesTouch drives two summaries with one stream, one through
// Touch alone and one through a caller-side index of the counters Touch
// returned (the way clicstats.Partitioned uses Bump), across overflow
// churn and a Reset: the summaries must stay identical.
func TestBumpMatchesTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	plain := New[int, int](8)
	indexed := New[int, int](8)
	index := map[int]*Counter[int, int]{}
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
		if c := index[k]; c != nil {
			indexed.Bump(c)
		} else {
			c, old, replaced := indexed.Touch(k)
			if replaced {
				delete(index, old)
			}
			index[k] = c
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
				t.Fatalf("step %d, counter %d: %+v vs %+v", i, j, *a[j], *b[j])
			}
		}
	}
}
