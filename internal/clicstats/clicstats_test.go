package clicstats

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hint"
)

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{{Window: 0, R: 1}, {Window: 10, R: 0}, {Window: 10, R: 1.5},
		{Window: 10, R: math.NaN()}, {Window: 10, R: 1, TopK: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			NewPartitioned(cfg)
		}()
	}
}

// TestPartitionedWindowMath pins the Equation 1–3 arithmetic on a
// hand-computed stream: one window with N(A)=4, Nr(A)=2, distances 1+3.
func TestPartitionedWindowMath(t *testing.T) {
	p := NewPartitioned(Config{Window: 4, R: 0.5})
	p.Arrive(0)
	p.EndRequest()
	p.Arrive(0)
	p.Reref(0, 1)
	p.EndRequest()
	p.Arrive(0)
	p.EndRequest()
	p.Arrive(0)
	p.Reref(0, 3)
	if p.Windows() != 0 || p.Epoch() != 0 {
		t.Fatalf("rotated early: windows=%d epoch=%d", p.Windows(), p.Epoch())
	}
	ws := p.WindowStats()
	if len(ws) != 1 || ws[0].N != 4 || ws[0].Nr != 2 || math.Abs(ws[0].D-2) > 1e-12 {
		t.Fatalf("window stats = %+v", ws)
	}
	if !p.EndRequest() {
		t.Fatal("request W did not rotate")
	}
	// p̂ = nr²/(n·dsum) = 4/(4·4) = 0.25; blended with r=0.5 from 0 → 0.125.
	if got := p.Priority(0); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("Priority = %v, want 0.125", got)
	}
	if p.Windows() != 1 || p.Epoch() != 1 {
		t.Errorf("windows=%d epoch=%d, want 1, 1", p.Windows(), p.Epoch())
	}
	if p.TrackedHintSets() != 0 {
		t.Errorf("stats not cleared after rotation: %d tracked", p.TrackedHintSets())
	}
	// Next window: hint 0 unseen → decays by (1-r); hint 1 appears.
	for i := 0; i < 4; i++ {
		p.Arrive(1)
		if i == 1 {
			p.Reref(1, 2)
		}
		p.EndRequest()
	}
	if got := p.Priority(0); math.Abs(got-0.0625) > 1e-12 {
		t.Errorf("decayed Priority(0) = %v, want 0.0625", got)
	}
	if got := p.Priority(1); got <= 0 {
		t.Errorf("Priority(1) = %v, want > 0", got)
	}
}

// TestDecayPrunesTable checks that entries decaying below eps vanish from
// the table (their priority reads as 0 either way; pruning bounds memory).
func TestDecayPrunesTable(t *testing.T) {
	p := NewPartitioned(Config{Window: 2, R: 1})
	p.Arrive(0)
	p.Reref(0, 1)
	p.EndRequest()
	p.Arrive(0)
	p.EndRequest() // rotation 1: Pr(0) > 0
	if p.Priority(0) <= 0 {
		t.Fatal("no priority learned")
	}
	p.Arrive(1)
	p.EndRequest()
	p.Arrive(1)
	p.EndRequest() // rotation 2: r=1 forgets hint 0 entirely
	if got := p.Priority(0); got != 0 {
		t.Errorf("Priority(0) = %v after full decay, want 0", got)
	}
	if pr := p.Priorities(); len(pr) != 1 {
		t.Errorf("table not pruned: %v", pr)
	}
}

// TestGlobalConcurrent hammers one Global learner from several goroutines,
// each through its own tap, one request per lease; under -race this
// exercises the taps' state words, the late hand-ins and the table
// republishing.
// Totals are exact: every arrival lands in exactly one window, so the sum
// of current-window N plus W per completed window equals the request count.
func TestGlobalConcurrent(t *testing.T) {
	const (
		workers = 8
		perW    = 20000
		window  = 1000
	)
	g := NewGlobal(Config{Window: window, R: 0.5})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tp := g.Tap()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				h := hint.ID(rng.Intn(32))
				tp.Begin(1)
				tp.Arrive(h)
				if i%4 == 0 {
					tp.Reref(h, uint64(1+rng.Intn(9)))
				}
				tp.EndRequest()
			}
		}(w)
	}
	wg.Wait()
	if want := workers * perW / window; g.Windows() != want {
		t.Errorf("Windows = %d, want %d", g.Windows(), want)
	}
	var n uint64
	for _, hs := range g.WindowStats() {
		n += hs.N
	}
	if total := n + uint64(g.Windows()*window); total != workers*perW {
		t.Errorf("arrivals accounted = %d, want %d", total, workers*perW)
	}
	if len(g.Priorities()) == 0 {
		t.Error("no priorities learned from a re-referencing stream")
	}
}

// TestGlobalTopK checks the top-k mode end to end: tracking stays within
// budget and frequent hint sets earn nonzero priorities.
func TestGlobalTopK(t *testing.T) {
	g := NewGlobal(Config{Window: 2000, R: 1, TopK: 16})
	tp := g.Tap()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6000; i++ {
		// Hints 0–1 dominate with quick re-references; 2–31 are noise.
		h := hint.ID(rng.Intn(2))
		if rng.Intn(5) == 0 {
			h = hint.ID(2 + rng.Intn(30))
		}
		tp.Begin(1)
		tp.Arrive(h)
		if h < 2 && rng.Intn(2) == 0 {
			tp.Reref(h, uint64(1+rng.Intn(5)))
		}
		tp.EndRequest()
	}
	if got := g.TrackedHintSets(); got > 16 {
		t.Errorf("TrackedHintSets = %d, want <= 16", got)
	}
	pr := g.Priorities()
	if pr[0] <= 0 || pr[1] <= 0 {
		t.Errorf("frequent hints have priorities %v, %v; want > 0", pr[0], pr[1])
	}
	if ws := g.WindowStats(); len(ws) > 16 {
		t.Errorf("WindowStats has %d entries, want <= 16", len(ws))
	}
}

// TestWindowModesDifferOnlyInOpenedCredits pins the one rule in which the
// modes differ. An exact window and a top-k window whose k covers every
// hint set are fed the same arrivals, re-references and resets. The top-k
// window never replaces, so its counters must equal the exact window's
// except for the credits exact mode opened: re-references to hint sets that
// had not yet arrived in the window, which top-k mode drops (§5). Distances
// are small integers, so every distance sum is exact whatever its order.
func TestWindowModesDifferOnlyInOpenedCredits(t *testing.T) {
	const sets = 20
	exact, topk := newWindow(0), newWindow(sets)
	rng := rand.New(rand.NewSource(13))
	arrived := map[hint.ID]bool{}
	opened := map[hint.ID]WindowCounter{} // credits before the first arrival
	counters := func(w *window) map[hint.ID]WindowCounter {
		m := map[hint.ID]WindowCounter{}
		w.each(func(wc WindowCounter) { m[wc.Hint] = wc })
		return m
	}
	openedSome := false
	for step := 0; step < 20000; step++ {
		h := hint.ID(rng.Intn(sets))
		switch r := rng.Intn(100); {
		case r == 0:
			exact.reset()
			topk.reset()
			clear(arrived)
			clear(opened)
		case r < 60:
			exact.Arrive(h)
			topk.Arrive(h)
			arrived[h] = true
		default:
			dist := uint64(1 + rng.Intn(1000))
			exact.Reref(h, dist)
			topk.Reref(h, dist)
			if !arrived[h] {
				o := opened[h]
				o.Hint, o.Nr, o.Dsum = h, o.Nr+1, o.Dsum+float64(dist)
				opened[h] = o
				openedSome = true
			}
		}
		ex, tk := counters(&exact), counters(&topk)
		for h, e := range ex {
			want := tk[h]
			want.Hint = h
			want.Nr += opened[h].Nr
			want.Dsum += opened[h].Dsum
			if e != want {
				t.Fatalf("step %d: exact window has %+v, want the top-k window's %+v plus opened credits %+v",
					step, e, tk[h], opened[h])
			}
		}
		for h := range tk {
			if _, ok := ex[h]; !ok {
				t.Fatalf("step %d: hint set %d is tracked in top-k mode only", step, h)
			}
		}
		if len(tk) != len(arrived) || topk.sum.Len() != len(arrived) {
			t.Fatalf("step %d: top-k window tracks %d hint sets, %d arrived", step, len(tk), len(arrived))
		}
	}
	if !openedSome {
		t.Fatal("the stream never credited a hint set before its arrival")
	}
}

func BenchmarkPartitionedArrive(b *testing.B) {
	p := NewPartitioned(Config{Window: 100000, R: 1})
	for i := 0; i < b.N; i++ {
		p.Arrive(hint.ID(i % 64))
		p.EndRequest()
	}
}

// BenchmarkPartitionedArriveTopK is BenchmarkPartitionedArrive through the
// bounded summary, with fewer hint sets than counters as in the repository
// benchmark: after the first 64 requests every Arrive bumps a tracked slot.
func BenchmarkPartitionedArriveTopK(b *testing.B) {
	p := NewPartitioned(Config{Window: 100000, R: 1, TopK: 100})
	for i := 0; i < b.N; i++ {
		p.Arrive(hint.ID(i % 64))
		p.EndRequest()
	}
}

func BenchmarkGlobalArrive(b *testing.B) {
	g := NewGlobal(Config{Window: 100000, R: 1})
	b.RunParallel(func(pb *testing.PB) {
		tp := g.Tap()
		i := 0
		for pb.Next() {
			tp.Begin(1)
			tp.Arrive(hint.ID(i % 64))
			tp.EndRequest()
			i++
		}
	})
}

// BenchmarkGlobalRotation measures a rotation at its own cost: eight taps
// driven serially, each in turn leasing one window of W = 256 requests that
// ends in a rotation, with R = 0.5 so unseen hint sets decay in the table.
// One op is one lease plus the rotation that closes it: the round's sums,
// the Equation 3 blend and the rotating tap's copy of the new table.
func BenchmarkGlobalRotation(b *testing.B) {
	const w, ntaps = 256, 8
	for _, hints := range []int{40, 400} {
		b.Run(fmt.Sprintf("hints=%d", hints), func(b *testing.B) {
			g := NewGlobal(Config{Window: w, R: 0.5})
			taps := make([]*Learner, ntaps)
			for i := range taps {
				taps[i] = g.Tap()
			}
			next := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tp := taps[i%ntaps]
				tp.Begin(w)
				for j := 0; j < w; j++ {
					h := hint.ID(next % hints)
					next++
					tp.Arrive(h)
					if j%2 == 0 {
						tp.Reref(h, uint64(1+j%7))
					}
					tp.EndRequest()
				}
			}
			if g.Windows() != b.N {
				b.Fatalf("%d rotations in %d leases", g.Windows(), b.N)
			}
		})
	}
}
