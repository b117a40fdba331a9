package clicstats

import (
	"math"
	"testing"
)

// endOne closes one request on tp under a lease of its own, the way
// core.Sharded.Access drives a tap.
func endOne(tp *Learner) bool {
	tp.Begin(1)
	return tp.EndRequest()
}

// TestMergedAbsorb pins the merge arithmetic: remote counters folded in
// before a rotation sum with the local window, exactly as if the remote
// requests had hit this node (Equation 2 over the summed counters).
func TestMergedAbsorb(t *testing.T) {
	g := NewGlobal(Config{Window: 4, R: 1})
	tp := g.Tap()
	// Local window: N(0)=4, Nr(0)=2, dsum=4.
	for i := 0; i < 3; i++ {
		tp.Arrive(0)
		endOne(tp)
	}
	tp.Begin(1)
	tp.Arrive(0)
	tp.Reref(0, 1)
	tp.Reref(0, 3)
	// Remote: N(0)=4, Nr(0)=2, dsum=4 (a peer that saw the same pattern),
	// plus hint 1 that only the peer saw.
	g.Absorb([]WindowCounter{
		{Hint: 0, N: 4, Nr: 2, Dsum: 4},
		{Hint: 1, N: 2, Nr: 1, Dsum: 10},
	})
	if g.Absorbed() != 1 || g.PendingHintSets() != 2 {
		t.Fatalf("absorbed=%d pending=%d", g.Absorbed(), g.PendingHintSets())
	}
	if !tp.EndRequest() {
		t.Fatal("request W did not rotate")
	}
	// Merged hint 0: nr²/(n·dsum) = 16/(8·8) = 0.25 — the same estimate as
	// local-only here, pinning that doubling every counter is neutral. The
	// rotating tap reads the new table at once.
	if got := tp.Priority(0); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Priority(0) = %v, want 0.25", got)
	}
	// Remote-only hint 1: 1/(2·10) = 0.05.
	if got := tp.Priority(1); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("Priority(1) = %v, want 0.05", got)
	}
	if g.PendingHintSets() != 0 {
		t.Errorf("pending pool not drained: %d", g.PendingHintSets())
	}
}

// TestMergedPublish checks the publication hook: called once per rotation
// with the epoch the rotation publishes as its round, and only this node's
// local counters.
func TestMergedPublish(t *testing.T) {
	g := NewGlobal(Config{Window: 2, R: 1})
	tp := g.Tap()
	var rounds []uint64
	var lastLocal []WindowCounter
	g.SetPublish(func(round uint64, local []WindowCounter) {
		rounds = append(rounds, round)
		lastLocal = append([]WindowCounter(nil), local...)
	})
	// Absorbed remote counters for hint 5 must NOT appear in what this
	// node publishes.
	g.Absorb([]WindowCounter{{Hint: 5, N: 100, Nr: 50, Dsum: 500}})
	tp.Arrive(0)
	endOne(tp)
	tp.Begin(1)
	tp.Arrive(0)
	tp.Reref(0, 1)
	tp.EndRequest()
	if len(rounds) != 1 || rounds[0] != 1 || g.Epoch() != 1 {
		t.Fatalf("rounds = %v at epoch %d, want [1] at 1", rounds, g.Epoch())
	}
	if len(lastLocal) != 1 || lastLocal[0].Hint != 0 {
		t.Fatalf("published %+v, want only local hint 0", lastLocal)
	}
	if lastLocal[0].N != 2 || lastLocal[0].Nr != 1 || lastLocal[0].Dsum != 1 {
		t.Errorf("published counters %+v, want N=2 Nr=1 Dsum=1", lastLocal[0])
	}
	tp.Arrive(1)
	endOne(tp)
	tp.Arrive(1)
	endOne(tp)
	if len(rounds) != 2 || rounds[1] != 2 {
		t.Errorf("rounds = %v, want [1 2]", rounds)
	}
}

// TestMergedCrossFeed wires two Global learners into a two-node cluster by
// hand: each publishes into the other's pending pool. A hint set seen only
// by node A must become prioritized on node B after B's next rotation.
func TestMergedCrossFeed(t *testing.T) {
	cfg := Config{Window: 4, R: 1}
	a, b := NewGlobal(cfg), NewGlobal(cfg)
	ta, tb := a.Tap(), b.Tap()
	a.SetPublish(func(_ uint64, local []WindowCounter) { b.Absorb(local) })
	b.SetPublish(func(_ uint64, local []WindowCounter) { a.Absorb(local) })

	// Node A sees hint 7 heavily; node B never does.
	for i := 0; i < 4; i++ {
		ta.Arrive(7)
		ta.Reref(7, 2)
		endOne(ta) // the fourth: A rotates and publishes hint 7 into B's pool
		tb.Arrive(1)
		endOne(tb) // the fourth: B rotates and folds A's counters in
	}
	if got := tb.Priority(7); got <= 0 {
		t.Fatalf("node B learned nothing about hint 7 (priority %v)", got)
	}
	// B's estimate for 7 comes purely from A's summary: N=4, Nr=4, dsum=8
	// → 16/(4·8) = 0.5.
	if got := tb.Priority(7); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Priority(7) on B = %v, want 0.5", got)
	}
}
