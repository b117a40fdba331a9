package clicstats

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/hint"
)

// TestTapSerialEqualsPartitioned is the tap contract: driven by one
// goroutine — through any number of taps, in frames of any length, leased
// whole or one request at a time — a Global is a lone learner. After every
// request the rotation flag and the epoch agree. In exact mode, and in
// top-k mode with one tap, so does the priority table after every
// rotation, bit for bit, read through the Global and through every tap.
// Twenty hint sets over TopK 5 keep Space-Saving replacing, so the one-tap
// top-k rows hold only if the events reach the tap's window in request
// order; W = 1 and W = 7 put several boundaries inside one lease.
// A tap reads its own copy of the table: the rotating tap's is checked at
// once, and every tap's at its next Begin, before any request reads it.
//
// Top-k with several taps is per-shard summaries summed at rotation, a
// mergeable summary rather than the lone learner's one summary, so those
// rows assert Space-Saving's guarantees against an exact lone learner fed
// the same stream instead: in every published round each N(H) and Nr(H)
// is at most the exact count, and every hint set with more than W/k
// requests in the round is present.
func TestTapSerialEqualsPartitioned(t *testing.T) {
	const hints, requests = 20, 12000
	for _, topK := range []int{0, 5} {
		for _, w := range []int{1, 7, 500} {
			for _, ntaps := range []int{1, 3, 8} {
				name := fmt.Sprintf("TopK=%d/W=%d/taps=%d", topK, w, ntaps)
				cfg := Config{Window: w, R: 0.5, TopK: topK}
				equal := topK == 0 || ntaps == 1
				pcfg := cfg
				if !equal {
					pcfg.TopK = 0
				}
				p, g := NewPartitioned(pcfg), NewGlobal(cfg)
				var round []WindowCounter
				g.SetPublish(func(_ uint64, local []WindowCounter) { round = local })
				taps := make([]*Learner, ntaps)
				for i := range taps {
					taps[i] = g.Tap()
				}
				rng := rand.New(rand.NewSource(int64(31*w + topK + ntaps)))
				// sameTable checks tap tp's table against the lone learner's.
				sameTable := func(tp *Learner, when string) {
					t.Helper()
					if !equal {
						return
					}
					if tp.Epoch() != p.Epoch() {
						t.Fatalf("%s %s: tap epoch %d, partitioned %d", name, when, tp.Epoch(), p.Epoch())
					}
					for h := hint.ID(0); h < hints+1; h++ {
						if got, want := tp.Priority(h), p.Priority(h); got != want {
							t.Fatalf("%s %s epoch %d hint %d: tap priority %v, partitioned %v", name, when, p.Epoch(), h, got, want)
						}
					}
				}
				rotations, done := 0, 0
				for done < requests {
					tp := taps[rng.Intn(ntaps)]
					n := 1 + rng.Intn(700)
					whole := rng.Intn(3) < 2
					if whole {
						tp.Begin(n)
						sameTable(tp, "at Begin")
					}
					for i := 0; i < n; i++ {
						if !whole {
							tp.Begin(1)
							sameTable(tp, "at Begin")
						}
						// Skewed, so that some hint sets stay tracked.
						h := hint.ID(rng.Intn(hints))
						if rng.Intn(2) == 0 {
							h = hint.ID(rng.Intn(3))
						}
						p.Arrive(h)
						tp.Arrive(h)
						if rng.Intn(3) == 0 {
							rh, d := hint.ID(rng.Intn(hints)), uint64(1+rng.Intn(80))
							p.Reref(rh, d)
							tp.Reref(rh, d)
						}
						var exact []HintStat
						if !equal && (done+i+1)%w == 0 {
							exact = p.WindowStats()
						}
						pe, ge := p.EndRequest(), tp.EndRequest()
						if pe != ge || p.Epoch() != tp.Epoch() || p.Windows() != g.Windows() {
							t.Fatalf("%s request %d: partitioned rotated=%v epoch=%d windows=%d, tap rotated=%v epoch=%d windows=%d",
								name, done+i, pe, p.Epoch(), p.Windows(), ge, tp.Epoch(), g.Windows())
						}
						if !pe {
							continue
						}
						rotations++
						if !equal {
							merged := make([]HintStat, len(round))
							for j, wc := range round {
								merged[j] = HintStat{Hint: wc.Hint, N: wc.N, Nr: wc.Nr}
							}
							checkMergedBounds(t, fmt.Sprintf("%s epoch %d", name, p.Epoch()), merged, exact, w, topK)
							continue
						}
						pp, gp := p.Priorities(), g.Priorities()
						if !reflect.DeepEqual(pp, gp) {
							t.Fatalf("%s epoch %d: partitioned table %v, global %v", name, p.Epoch(), pp, gp)
						}
						sameTable(tp, "at its rotation")
					}
					done += n
				}
				if rotations == 0 || len(p.Priorities()) == 0 || len(g.Priorities()) == 0 {
					t.Errorf("%s: vacuous run: %d rotations, %d priorities", name, rotations, len(g.Priorities()))
				}
				if !equal {
					checkMergedBounds(t, name+" at the end", g.WindowStats(), p.WindowStats(), done%w, topK)
				} else if !reflect.DeepEqual(p.WindowStats(), g.WindowStats()) {
					t.Errorf("%s: window statistics differ at the end:\npartitioned %+v\nglobal      %+v", name, p.WindowStats(), g.WindowStats())
				}
			}
		}
	}
}

// checkMergedBounds asserts Space-Saving's guarantees for per-tap top-k
// summaries summed over one window of w requests, against the exact counts
// of the same window: no hint set is counted or credited more often than it
// was, and every hint set with more than w/k requests is present.
func checkMergedBounds(t *testing.T, what string, merged, exact []HintStat, w, k int) {
	t.Helper()
	want := make(map[hint.ID]HintStat, len(exact))
	for _, hs := range exact {
		want[hs.Hint] = hs
	}
	got := make(map[hint.ID]bool, len(merged))
	for _, hs := range merged {
		got[hs.Hint] = true
		ex := want[hs.Hint]
		if hs.N > ex.N || hs.Nr > ex.Nr {
			t.Fatalf("%s hint %d: merged N=%d Nr=%d over the exact N=%d Nr=%d", what, hs.Hint, hs.N, hs.Nr, ex.N, ex.Nr)
		}
	}
	for _, ex := range exact {
		if ex.N*uint64(k) > uint64(w) && !got[ex.Hint] {
			t.Fatalf("%s hint %d: %d of %d requests, over W/k, but missing from the merged summary %+v", what, ex.Hint, ex.N, w, merged)
		}
	}
}

// TestTapConcurrent is the -race stress of the tap protocol at a window of
// 1000: every multiple of W must be seen by exactly one lease, every round
// must publish once and in order, and no arrival may be lost or counted
// twice (stressTaps). The hook also absorbs what it publishes back into the
// learner, as a peer delivering at publish time would: Absorb inside a
// publication must neither deadlock nor reach the published counters.
func TestTapConcurrent(t *testing.T) {
	g := stressTaps(t, 1000, 50000, true)
	if len(g.Priorities()) == 0 {
		t.Error("no priorities learned from a re-referencing stream")
	}
}

// TestTapConcurrentTinyWindows stresses the hand-off where rounds overlap:
// with W of 1, 3 and 8, nearly every rotation finds other taps leased,
// marks them owed and leaves its round open, and a tap may owe a round
// while others open behind it. stressTaps checks the counts; here the
// hand-off must also have happened, and no goroutine may outlive the runs.
func TestTapConcurrentTinyWindows(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, w := range []int{1, 3, 8} {
		if g := stressTaps(t, w, 20000, false); g.LateHandins() == 0 {
			t.Errorf("W=%d: no rotation found a tap leased: the hand-off went untested", w)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), baseline)
		}
	}
}

// stressTaps drives one Global with window w from four goroutines, each
// with two taps of its own, leasing frames of 1–64 requests of perG each
// and yielding mid-lease now and then, so that leases overlap even on one
// CPU. It checks that rotations == total/W and that rounds publish as 1,
// 2, … in order, and that the N in the published rounds plus the N still
// in the taps (WindowStats) is the number of arrivals. With echo the
// publish hook absorbs what it publishes, and every round must have been
// absorbed. A tap that never returns trips the watchdog.
func stressTaps(t *testing.T, w, perG int, echo bool) *Global {
	t.Helper()
	const goroutines, tapsEach = 4, 2
	g := NewGlobal(Config{Window: w, R: 0.5})
	// Written by the hook, under the rotation lock.
	var published, rounds uint64
	g.SetPublish(func(round uint64, local []WindowCounter) {
		if rounds++; round != rounds {
			t.Errorf("W=%d: published round %d as round %d", w, round, rounds)
		}
		for _, wc := range local {
			published += wc.N
		}
		if echo {
			g.Absorb(local)
		}
	})
	var rotations atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			taps := make([]*Learner, tapsEach)
			for j := range taps {
				taps[j] = g.Tap()
			}
			rng := rand.New(rand.NewSource(seed))
			for left := perG; left > 0; {
				n := min(1+rng.Intn(64), left)
				tp := taps[rng.Intn(tapsEach)]
				tp.Begin(n)
				for j := 0; j < n; j++ {
					h := hint.ID(rng.Intn(32))
					tp.Arrive(h)
					if j%4 == 0 {
						tp.Reref(h, uint64(1+rng.Intn(9)))
					}
					if tp.EndRequest() {
						rotations.Add(1)
					}
					tp.Priority(h)
					if rng.Intn(8) == 0 {
						runtime.Gosched()
					}
				}
				left -= n
			}
		}(int64(w*goroutines + i))
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		buf := make([]byte, 1<<16)
		t.Fatalf("W=%d: taps still running after 2m\n%s", w, buf[:runtime.Stack(buf, true)])
	}

	total := goroutines * perG
	want := total / w
	if int(rotations.Load()) != want || g.Windows() != want || g.Epoch() != uint64(want) || rounds != uint64(want) {
		t.Errorf("W=%d: %d rotations, %d windows, epoch %d, %d rounds published, want %d each", w, rotations.Load(), g.Windows(), g.Epoch(), rounds, want)
	}
	if echo && g.Absorbed() != uint64(want) {
		t.Errorf("W=%d: absorbed %d rounds, want %d", w, g.Absorbed(), want)
	}
	held := uint64(0)
	for _, hs := range g.WindowStats() {
		held += hs.N
	}
	if published+held != uint64(total) {
		t.Errorf("W=%d: arrivals: %d published + %d still in the taps = %d, want %d", w, published, held, published+held, total)
	}
	return g
}

// TestTapLeaseMisuse pins the two ways to break a lease: EndRequest with
// no lease open and Begin inside an open one both panic, and neither
// draws a request number first.
func TestTapLeaseMisuse(t *testing.T) {
	g := NewGlobal(Config{Window: 2, R: 1})
	tp := g.Tap()
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("EndRequest outside a lease", func() { tp.EndRequest() })
	if endOne(tp) {
		t.Error("request 1 of a 2-request window rotated")
	}
	tp.Begin(2)
	mustPanic("Begin inside a lease", func() { tp.Begin(1) })
	if !tp.EndRequest() || tp.EndRequest() {
		t.Error("rotation did not fall on request 2")
	}
	mustPanic("EndRequest after the lease ran out", func() { tp.EndRequest() })
	if got := g.requests.Load(); got != 3 {
		t.Errorf("requests leased = %d, want 3", got)
	}
}

// TestGlobalLayout pins the padding: requests, which every frame of every
// shard adds to, is a cache line away from every other field of Global
// wherever the allocator puts the struct.
func TestGlobalLayout(t *testing.T) {
	typ := reflect.TypeOf((*Global)(nil)).Elem()
	req, _ := typ.FieldByName("requests")
	start, end := req.Offset, req.Offset+req.Type.Size()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" || f.Name == "requests" {
			continue
		}
		// Any line holding a byte of requests lies inside (end-64, start+64).
		if fend := f.Offset + f.Type.Size(); fend+cacheLine > end && f.Offset < start+cacheLine {
			t.Errorf("field %s at bytes [%d,%d) can share a cache line with requests at [%d,%d)", f.Name, f.Offset, fend, start, end)
		}
	}
}

// TestLearnerLayout pins the learner's layout. Learners are allocated one
// per shard, back to back, and written on every request, so a Learner is a
// whole number of cache lines and neighbours never share one. And the
// words the request path reads on every request, in either scope — the
// countdown, the tap pointer, the pending arrival, and the summary's key
// index, observation count and slab pointer — sit in its first line. The
// slab's length, which Bump's bounds check reads, is the one that cannot:
// three words of the learner's own and two slice headers overrun a line.
func TestLearnerLayout(t *testing.T) {
	if n := unsafe.Sizeof(Learner{}); n%cacheLine != 0 {
		t.Errorf("Learner is %d bytes, not a multiple of %d", n, cacheLine)
	}
	type word struct {
		name       string
		off, bytes uintptr
	}
	var l Learner
	// sum names the leading bytes of one of the summary's fields.
	sum := func(name string, bytes uintptr) word {
		f, _ := reflect.TypeOf(l.sum).FieldByName(name)
		return word{"sum." + name, unsafe.Offsetof(l.sum) + f.Offset, bytes}
	}
	ptr := unsafe.Sizeof(uintptr(0))
	for _, f := range []word{
		{"countdown", unsafe.Offsetof(l.countdown), unsafe.Sizeof(l.countdown)},
		{"g", unsafe.Offsetof(l.g), unsafe.Sizeof(l.g)},
		{"pendingHint", unsafe.Offsetof(l.pendingHint), unsafe.Sizeof(l.pendingHint)},
		{"pending", unsafe.Offsetof(l.pending), unsafe.Sizeof(l.pending)},
		sum("index", 2*ptr), // data pointer and length
		sum("observed", 8),
		sum("slab", ptr), // data pointer
	} {
		if f.off+f.bytes > cacheLine {
			t.Errorf("hot word %s at bytes [%d,%d) is not in the first cache line", f.name, f.off, f.off+f.bytes)
		}
	}
}
