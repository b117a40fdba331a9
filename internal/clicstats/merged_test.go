package clicstats

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hint"
)

// drive feeds l a deterministic single-threaded stream of n requests over
// pages drawn from a small hint vocabulary, mimicking what a cache does:
// every request arrives, some re-reference, every request ends.
func drive(l Learner, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		h := hint.ID(rng.Intn(8))
		l.Arrive(h)
		if rng.Intn(3) == 0 {
			l.Reref(h, uint64(rng.Intn(50)+1))
		}
		l.EndRequest()
	}
}

// TestMergedAloneMatchesGlobal pins that a Merged learner with no peers
// (nothing absorbed, bias 0) is bit-identical to Global on the same
// stream: the cluster machinery must cost nothing when unused.
func TestMergedAloneMatchesGlobal(t *testing.T) {
	cfg := Config{Window: 100, R: 0.5}
	g := NewGlobal(cfg)
	m := NewMerged(cfg)
	drive(g.Tap(), 1000, 7)
	drive(m.Tap(), 1000, 7)
	if g.Windows() != m.Windows() || g.Epoch() != m.Epoch() {
		t.Fatalf("windows/epoch diverged: global %d/%d, merged %d/%d",
			g.Windows(), g.Epoch(), m.Windows(), m.Epoch())
	}
	gp, mp := g.Priorities(), m.Priorities()
	if len(gp) != len(mp) {
		t.Fatalf("table size diverged: %d vs %d", len(gp), len(mp))
	}
	for h, v := range gp {
		if mv, ok := mp[h]; !ok || math.Float64bits(mv) != math.Float64bits(v) {
			t.Errorf("hint %d: global %v, merged %v", h, v, mv)
		}
	}
	if m.Rounds() != uint64(m.Windows()) {
		t.Errorf("rounds = %d, want %d", m.Rounds(), m.Windows())
	}
}

// TestMergedAbsorb pins the merge arithmetic: remote counters folded in
// before a rotation sum with the local window, exactly as if the remote
// requests had hit this node (Equation 2 over the summed counters).
func TestMergedAbsorb(t *testing.T) {
	m := NewMerged(Config{Window: 4, R: 1})
	tp := m.Tap()
	// Local window: N(0)=4, Nr(0)=2, dsum=4.
	for i := 0; i < 3; i++ {
		tp.Arrive(0)
		tp.EndRequest()
	}
	tp.Arrive(0)
	tp.Reref(0, 1)
	tp.Reref(0, 3)
	// Remote: N(0)=4, Nr(0)=2, dsum=4 (a peer that saw the same pattern),
	// plus hint 1 that only the peer saw.
	m.Absorb([]WindowCounter{
		{Hint: 0, N: 4, Nr: 2, Dsum: 4},
		{Hint: 1, N: 2, Nr: 1, Dsum: 10},
	})
	if m.Absorbed() != 1 || m.PendingHintSets() != 2 {
		t.Fatalf("absorbed=%d pending=%d", m.Absorbed(), m.PendingHintSets())
	}
	if !tp.EndRequest() {
		t.Fatal("request W did not rotate")
	}
	// Merged hint 0: nr²/(n·dsum) = 16/(8·8) = 0.25 — the same estimate as
	// local-only here, pinning that doubling every counter is neutral.
	if got := m.Priority(0); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Priority(0) = %v, want 0.25", got)
	}
	// Remote-only hint 1: 1/(2·10) = 0.05.
	if got := m.Priority(1); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("Priority(1) = %v, want 0.05", got)
	}
	if m.PendingHintSets() != 0 {
		t.Errorf("pending pool not drained: %d", m.PendingHintSets())
	}
}

// TestMergedLocalBias pins the prior/correction blend: with bias b the
// fresh estimate is (1-b)·merged + b·local.
func TestMergedLocalBias(t *testing.T) {
	m := NewMerged(Config{Window: 2, R: 1, LocalBias: 0.25})
	tp := m.Tap()
	// Local: N(0)=2, Nr(0)=1, dsum=2 → local est 1/(2·2) = 0.25.
	tp.Arrive(0)
	tp.EndRequest()
	tp.Arrive(0)
	tp.Reref(0, 2)
	// Remote skews hint 0 down: merged N=4, Nr=1, dsum=4 → 1/(4·4) = 0.0625.
	m.Absorb([]WindowCounter{{Hint: 0, N: 2, Nr: 0, Dsum: 2}})
	tp.EndRequest()
	want := 0.75*0.0625 + 0.25*0.25
	if got := m.Priority(0); math.Abs(got-want) > 1e-12 {
		t.Errorf("Priority(0) = %v, want %v", got, want)
	}

	for _, bad := range []float64{-0.1, 1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LocalBias %v should panic", bad)
				}
			}()
			NewMerged(Config{Window: 2, R: 1, LocalBias: bad})
		}()
	}
}

// TestMergedPublish checks the publication hook: called once per rotation
// with monotone rounds and only this node's local counters.
func TestMergedPublish(t *testing.T) {
	m := NewMerged(Config{Window: 2, R: 1})
	tp := m.Tap()
	var rounds []uint64
	var lastLocal []WindowCounter
	m.SetPublish(func(round uint64, local []WindowCounter) {
		rounds = append(rounds, round)
		lastLocal = append([]WindowCounter(nil), local...)
	})
	// Absorbed remote counters for hint 5 must NOT appear in what this
	// node publishes.
	m.Absorb([]WindowCounter{{Hint: 5, N: 100, Nr: 50, Dsum: 500}})
	tp.Arrive(0)
	tp.EndRequest()
	tp.Arrive(0)
	tp.Reref(0, 1)
	tp.EndRequest()
	if len(rounds) != 1 || rounds[0] != 1 {
		t.Fatalf("rounds = %v, want [1]", rounds)
	}
	if len(lastLocal) != 1 || lastLocal[0].Hint != 0 {
		t.Fatalf("published %+v, want only local hint 0", lastLocal)
	}
	if lastLocal[0].N != 2 || lastLocal[0].Nr != 1 || lastLocal[0].Dsum != 1 {
		t.Errorf("published counters %+v, want N=2 Nr=1 Dsum=1", lastLocal[0])
	}
	tp.Arrive(1)
	tp.EndRequest()
	tp.Arrive(1)
	tp.EndRequest()
	if len(rounds) != 2 || rounds[1] != 2 {
		t.Errorf("rounds = %v, want [1 2]", rounds)
	}
}

// TestMergedCrossFeed wires two Merged learners into a two-node cluster by
// hand: each publishes into the other's pending pool. A hint set seen only
// by node A must become prioritized on node B after B's next rotation.
func TestMergedCrossFeed(t *testing.T) {
	cfg := Config{Window: 4, R: 1}
	a, b := NewMerged(cfg), NewMerged(cfg)
	ta, tb := a.Tap(), b.Tap()
	a.SetPublish(func(_ uint64, local []WindowCounter) { b.Absorb(local) })
	b.SetPublish(func(_ uint64, local []WindowCounter) { a.Absorb(local) })

	// Node A sees hint 7 heavily; node B never does.
	for i := 0; i < 3; i++ {
		ta.Arrive(7)
		ta.Reref(7, 2)
		ta.EndRequest()
		tb.Arrive(1)
		tb.EndRequest()
	}
	ta.Arrive(7)
	ta.Reref(7, 2)
	ta.EndRequest() // A rotates: publishes hint 7 counters into B's pool
	tb.Arrive(1)
	tb.EndRequest() // B rotates: folds A's counters in
	if got := b.Priority(7); got <= 0 {
		t.Fatalf("node B learned nothing about hint 7 (priority %v)", got)
	}
	// B's estimate for 7 comes purely from A's summary: N=4, Nr=4, dsum=8
	// → 16/(4·8) = 0.5.
	if got := b.Priority(7); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Priority(7) on B = %v, want 0.5", got)
	}
}
