package clicstats

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/hint"
)

// TestTapSerialEqualsPartitioned is the tap contract: driven by one
// goroutine — through any number of taps, in frames of any length, leased
// whole or one request at a time — a Global is a lone learner. After every
// request the rotation flag and the epoch agree, and after every rotation
// the priority table does, bit for bit, read through the Global and
// through every tap. Twenty hint sets over TopK 5 keep Space-Saving
// replacing, so the top-k rows hold only if the events reach the shared
// window in request order; W = 1 and W = 7 put several boundaries inside
// one lease.
func TestTapSerialEqualsPartitioned(t *testing.T) {
	const hints, requests = 20, 12000
	for _, topK := range []int{0, 5} {
		for _, w := range []int{1, 7, 500} {
			for _, ntaps := range []int{1, 3, 8} {
				name := fmt.Sprintf("TopK=%d/W=%d/taps=%d", topK, w, ntaps)
				cfg := Config{Window: w, R: 0.5, TopK: topK}
				p, g := NewPartitioned(cfg), NewGlobal(cfg)
				taps := make([]*Learner, ntaps)
				for i := range taps {
					taps[i] = g.Tap()
				}
				rng := rand.New(rand.NewSource(int64(31*w + topK + ntaps)))
				rotations := 0
				for done := 0; done < requests; {
					tp := taps[rng.Intn(ntaps)]
					n := 1 + rng.Intn(700)
					whole := rng.Intn(3) < 2
					if whole {
						tp.Begin(n)
					}
					for i := 0; i < n; i++ {
						if !whole {
							tp.Begin(1)
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
						pe, ge := p.EndRequest(), tp.EndRequest()
						if pe != ge || p.Epoch() != tp.Epoch() || p.Windows() != g.Windows() {
							t.Fatalf("%s request %d: partitioned rotated=%v epoch=%d windows=%d, tap rotated=%v epoch=%d windows=%d",
								name, done+i, pe, p.Epoch(), p.Windows(), ge, tp.Epoch(), g.Windows())
						}
						if !pe {
							continue
						}
						rotations++
						pp, gp := p.Priorities(), g.Priorities()
						if !reflect.DeepEqual(pp, gp) {
							t.Fatalf("%s epoch %d: partitioned table %v, global %v", name, p.Epoch(), pp, gp)
						}
						for _, each := range taps {
							for h := hint.ID(0); h < hints+1; h++ {
								if got, want := each.Priority(h), p.Priority(h); got != want {
									t.Fatalf("%s epoch %d hint %d: tap priority %v, partitioned %v", name, p.Epoch(), h, got, want)
								}
							}
						}
					}
					done += n
				}
				if rotations == 0 || len(p.Priorities()) == 0 {
					t.Errorf("%s: vacuous run: %d rotations, %d priorities", name, rotations, len(p.Priorities()))
				}
				if !reflect.DeepEqual(p.WindowStats(), g.WindowStats()) {
					t.Errorf("%s: window statistics differ at the end:\npartitioned %+v\nglobal      %+v", name, p.WindowStats(), g.WindowStats())
				}
			}
		}
	}
}

// TestTapConcurrent is the -race stress of the tap protocol: four
// goroutines, each with taps of its own on one Global learner, leasing
// frames of 1–64 requests. Every multiple of W must be seen by exactly one
// lease (rotations == total/W, published rounds 1, 2, … in order), and no
// event may be lost or counted twice: the N drained by the rotations,
// which the publish hook sees, plus the N still in the shared window once
// every tap has flushed, is the number of Arrives. The hook also absorbs
// what it publishes back into the learner, as a peer delivering at publish
// time would: Absorb inside a rotation must neither deadlock nor reach the
// published counters. A tap that never returns trips the watchdog.
func TestTapConcurrent(t *testing.T) {
	const (
		workers = 4
		perW    = 50000
		window  = 1000
	)
	g := NewGlobal(Config{Window: window, R: 0.5})
	// Written by the hook, under the rotation lock.
	var published, rounds uint64
	g.SetPublish(func(round uint64, local []WindowCounter) {
		if rounds++; round != rounds {
			t.Errorf("published round %d as rotation %d", round, rounds)
		}
		for _, wc := range local {
			published += wc.N
		}
		g.Absorb(local)
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			taps := []*Learner{g.Tap(), g.Tap()}
			rng := rand.New(rand.NewSource(int64(w)))
			for left := perW; left > 0; {
				n := min(1+rng.Intn(64), left)
				tp := taps[rng.Intn(len(taps))]
				tp.Begin(n)
				for i := 0; i < n; i++ {
					h := hint.ID(rng.Intn(32))
					tp.Arrive(h)
					if i%4 == 0 {
						tp.Reref(h, uint64(1+rng.Intn(9)))
					}
					tp.EndRequest()
					tp.Priority(h)
				}
				left -= n
			}
		}(w)
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
		t.Fatalf("taps still running after 2m\n%s", buf[:runtime.Stack(buf, true)])
	}

	const total = workers * perW
	if g.Windows() != total/window || g.Epoch() != total/window || rounds != total/window || g.Absorbed() != total/window {
		t.Errorf("windows=%d epoch=%d rounds=%d absorbed=%d, want exactly %d each", g.Windows(), g.Epoch(), rounds, g.Absorbed(), total/window)
	}
	held := uint64(0)
	for _, hs := range g.WindowStats() {
		held += hs.N
	}
	if published+held != total {
		t.Errorf("arrivals: %d published + %d still in the window = %d, want %d", published, held, published+held, total)
	}
	if len(g.Priorities()) == 0 {
		t.Error("no priorities learned from a re-referencing stream")
	}
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
// words a lone learner's request path reads on every request — the
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
