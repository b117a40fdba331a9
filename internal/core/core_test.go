package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/hint"
	"repro/internal/trace"
)

// Hint IDs used by the tests; CLIC treats them as opaque.
const (
	hintA hint.ID = 0
	hintB hint.ID = 1
	hintC hint.ID = 2
)

func rd(p uint64, h hint.ID) trace.Request {
	return trace.Request{Page: p, Hint: h, Op: trace.Read}
}
func wr(p uint64, h hint.ID) trace.Request {
	return trace.Request{Page: p, Hint: h, Op: trace.Write}
}

func TestDefaults(t *testing.T) {
	c := New(Config{Capacity: 100})
	cfg := c.Config()
	if cfg.Noutq != 500 {
		t.Errorf("default Noutq = %d, want 5×capacity = 500", cfg.Noutq)
	}
	if cfg.Window != DefaultWindow {
		t.Errorf("default Window = %d", cfg.Window)
	}
	if cfg.R != 1 {
		t.Errorf("default R = %v", cfg.R)
	}
	if c.Name() != "CLIC" || c.Capacity() != 100 {
		t.Errorf("Name/Capacity = %q/%d", c.Name(), c.Capacity())
	}
	none := New(Config{Capacity: 100, Noutq: NoOutqueue})
	if none.Config().Noutq != 0 {
		t.Errorf("NoOutqueue gave Noutq = %d", none.Config().Noutq)
	}
}

// TestWindowStatsExact verifies N(H), Nr(H) and D(H) on a hand-computed
// sequence (§3.1): requests are tagged seq 0,1,2,…; a read re-reference
// credits the *previous* request's hint set at the distance between them.
func TestWindowStatsExact(t *testing.T) {
	c := New(Config{Capacity: 10, Window: 1000})
	c.Access(rd(1, hintA)) // seq 0: N(A)=1
	c.Access(rd(2, hintB)) // seq 1: N(B)=1
	c.Access(rd(1, hintA)) // seq 2: N(A)=2; re-ref credits A, dist 2
	c.Access(wr(2, hintA)) // seq 3: N(A)=3; write: no credit for B
	c.Access(rd(2, hintC)) // seq 4: N(C)=1; re-ref credits A (p2's latest hint), dist 1

	stats := c.WindowStats()
	byHint := map[hint.ID]HintStat{}
	for _, s := range stats {
		byHint[s.Hint] = s
	}
	a := byHint[hintA]
	if a.N != 3 || a.Nr != 2 {
		t.Errorf("A: N=%d Nr=%d, want 3, 2", a.N, a.Nr)
	}
	if math.Abs(a.D-1.5) > 1e-12 {
		t.Errorf("A: D=%v, want 1.5 (distances 2 and 1)", a.D)
	}
	// Pr = (Nr/N)/D = (2/3)/1.5 = 4/9.
	if math.Abs(a.Pr-4.0/9.0) > 1e-12 {
		t.Errorf("A: Pr=%v, want 4/9", a.Pr)
	}
	if b := byHint[hintB]; b.N != 1 || b.Nr != 0 || b.Pr != 0 {
		t.Errorf("B: %+v, want N=1 Nr=0 Pr=0", b)
	}
	if cs := byHint[hintC]; cs.N != 1 || cs.Nr != 0 {
		t.Errorf("C: %+v, want N=1 Nr=0", cs)
	}
}

// TestFigure4Admission walks the replacement policy of Figure 4 end to end:
// a training window establishes priorities Pr(C) > Pr(A) > Pr(B) = 0, then
// admission, victim selection (min priority, min seq) and the
// strictly-greater rule are checked request by request.
func TestFigure4Admission(t *testing.T) {
	c := New(Config{Capacity: 2, Window: 8, Noutq: 10})

	// Training window (seq 0–7).
	c.Access(rd(10, hintA)) // seq 0: cached (cache not full)
	c.Access(rd(11, hintA)) // seq 1: cached
	c.Access(rd(10, hintA)) // seq 2: hit; credit A dist 2
	c.Access(rd(11, hintA)) // seq 3: hit; credit A dist 2
	c.Access(rd(20, hintB)) // seq 4: full, all priorities 0 → bypass
	c.Access(rd(21, hintB)) // seq 5: bypass
	c.Access(rd(40, hintC)) // seq 6: bypass (outqueue records it)
	c.Access(rd(40, hintC)) // seq 7: bypass; outqueue re-ref credits C dist 1
	// Rotation: p̂(A) = (2/4)/2 = 0.25, p̂(B) = 0, p̂(C) = (1/2)/1 = 0.5.

	if c.Windows() != 1 {
		t.Fatalf("windows = %d, want 1", c.Windows())
	}
	pr := c.Priorities()
	if math.Abs(pr[hintA]-0.25) > 1e-12 || math.Abs(pr[hintC]-0.5) > 1e-12 {
		t.Fatalf("priorities after window: %v", pr)
	}

	// seq 8: C (0.5) beats the minimum cached priority (A, 0.25): admit,
	// evicting the minimum-seq page of the A group — page 10 (seq 2).
	if c.Access(rd(50, hintC)) {
		t.Fatal("seq 8 was a miss")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// seq 9: page 11 must still be cached (10 was the victim).
	if !c.Access(rd(11, hintC)) {
		t.Fatal("page 11 was evicted; victim selection chose the wrong page")
	}
	// seq 10: page 10 must be gone; with hint B (priority 0) it is not
	// readmitted over min priority 0.5 (11 and 50 are now both hint C).
	if c.Access(rd(10, hintB)) {
		t.Fatal("page 10 still cached after eviction")
	}
	if c.Len() != 2 {
		t.Fatalf("Len changed: %d", c.Len())
	}
	// seq 11: equal priority must NOT admit (Figure 4 line 12 is strict).
	if c.Access(rd(60, hintC)) {
		t.Fatal("seq 11 was a miss")
	}
	// 11 and 50 should still be cached: verify via hits.
	if !c.Access(rd(50, hintC)) {
		t.Fatal("equal-priority request displaced a cached page")
	}
}

// TestNoReplacementWithoutPriorities: with all priorities zero (before the
// first window completes), a full cache admits nothing new.
func TestNoReplacementWithoutPriorities(t *testing.T) {
	c := New(Config{Capacity: 2, Window: 1000})
	c.Access(rd(1, hintA))
	c.Access(rd(2, hintA))
	c.Access(rd(3, hintA)) // full, equal (zero) priority → bypass
	if !c.Access(rd(1, hintA)) || !c.Access(rd(2, hintA)) {
		t.Error("original pages were displaced")
	}
	if c.Access(rd(3, hintA)) {
		t.Error("page 3 was admitted despite equal priority")
	}
}

// TestRehintChangesPriority: the most recent request determines a cached
// page's priority (Figure 4 lines 23–25).
func TestRehintChangesPriority(t *testing.T) {
	c := New(Config{Capacity: 2, Window: 6, Noutq: 10})
	// Train: A re-references quickly (high priority), B never (zero).
	c.Access(rd(1, hintA))  // seq 0
	c.Access(rd(1, hintA))  // seq 1: credit A dist 1
	c.Access(rd(2, hintA))  // seq 2
	c.Access(rd(2, hintA))  // seq 3: credit A dist 1
	c.Access(rd(9, hintB))  // seq 4
	c.Access(rd(99, hintB)) // seq 5 → rotation: pr(A)=0.75... (Nr=2,N=4,D=1)
	pr := c.Priorities()
	if pr[hintA] <= 0 || pr[hintB] != 0 {
		t.Fatalf("training priorities: %v", pr)
	}
	// Cache holds pages 1 and 2 (both A). Re-request page 1 with hint B:
	// its priority drops to 0, making it the victim for an A request.
	c.Access(rd(1, hintB)) // seq 6: hit, rehint to B
	c.Access(rd(3, hintA)) // seq 7: admits, evicting page 1 (pr 0)
	if c.Access(rd(1, hintA)) {
		t.Error("page 1 survived despite being re-hinted to priority 0")
	}
	// Pages 2 and 3 are the residents now; page 2 was hit at seq 8 above?
	// No: seq 8 accessed page 1 (miss). Verify 2 and 3 are cached.
	if !c.Access(rd(3, hintA)) {
		t.Error("page 3 not cached after admission")
	}
}

func TestOutqueueBound(t *testing.T) {
	c := New(Config{Capacity: 0, Window: 1000, Noutq: 3})
	for p := uint64(1); p <= 10; p++ {
		c.Access(rd(p, hintA))
	}
	if c.OutqueueLen() != 3 {
		t.Errorf("OutqueueLen = %d, want 3", c.OutqueueLen())
	}
	// Oldest entries were evicted: a re-read of page 1 is not detected as a
	// re-reference, but page 10 (recent) is.
	c.Access(rd(1, hintB))  // not detected (page 1 aged out)
	c.Access(rd(10, hintC)) // detected, credits hintA
	stats := map[hint.ID]HintStat{}
	for _, s := range c.WindowStats() {
		stats[s.Hint] = s
	}
	if stats[hintA].Nr != 1 {
		t.Errorf("Nr(A) = %d, want 1 (only the recent page is tracked)", stats[hintA].Nr)
	}
}

// TestVictimDisplacesIncomingRecord pins the corner where the outqueue is
// full and the record displaced by the victim's is the incoming page's own:
// the incoming page is cached on a fresh record, and the victim's record
// still lands in the outqueue and keeps detecting re-references.
func TestVictimDisplacesIncomingRecord(t *testing.T) {
	c := New(Config{Capacity: 1, Noutq: 1, Window: 6})
	c.Access(rd(1, hintA)) // seq 0: cached
	c.Access(rd(1, hintA)) // seq 1: hit; credit A dist 1
	c.Access(rd(1, hintB)) // seq 2: hit; credit A dist 1; page 1 is B now
	c.Access(rd(7, hintB)) // seq 3: bypass; outqueue = [7]
	c.Access(rd(8, hintB)) // seq 4: bypass; outqueue = [8]
	c.Access(wr(9, hintB)) // seq 5: bypass; outqueue = [9]; rotation: pr(A) = 1, pr(B) = 0
	if pr := c.Priorities(); pr[hintA] != 1 || pr[hintB] != 0 {
		t.Fatalf("training priorities: %v", pr)
	}
	// seq 6: page 9's record is the whole outqueue. A beats B, so page 1 is
	// evicted; its record displaces page 9's — the one Access looked up.
	if c.Access(rd(9, hintA)) {
		t.Fatal("seq 6 was a miss")
	}
	if c.Len() != 1 || c.OutqueueLen() != 1 || c.Evictions() != 1 {
		t.Fatalf("Len/OutqueueLen/Evictions = %d/%d/%d, want 1/1/1", c.Len(), c.OutqueueLen(), c.Evictions())
	}
	if !c.Access(rd(9, hintA)) { // seq 7
		t.Fatal("page 9 not cached after displacing its own record")
	}
	c.Access(rd(1, hintB)) // seq 8: page 1's record (B, seq 2) is in the outqueue: credit B dist 6
	stats := map[hint.ID]HintStat{}
	for _, s := range c.WindowStats() {
		stats[s.Hint] = s
	}
	// B: credited at seq 6 (page 9's record, dist 1) and seq 8 (dist 6).
	if b := stats[hintB]; b.N != 1 || b.Nr != 2 || math.Abs(b.D-3.5) > 1e-12 {
		t.Errorf("B: %+v, want N=1 Nr=2 D=3.5", b)
	}
	if a := stats[hintA]; a.N != 2 || a.Nr != 1 {
		t.Errorf("A: %+v, want N=2 Nr=1", a)
	}
	if err := c.checkConsistency(); err != nil {
		t.Error(err)
	}
}

func TestOutqueueDisabled(t *testing.T) {
	c := New(Config{Capacity: 0, Window: 1000, Noutq: NoOutqueue})
	c.Access(rd(1, hintA))
	c.Access(rd(1, hintA))
	if c.OutqueueLen() != 0 {
		t.Errorf("outqueue not disabled: %d", c.OutqueueLen())
	}
	for _, s := range c.WindowStats() {
		if s.Nr != 0 {
			t.Error("re-reference detected with outqueue disabled and page uncached")
		}
	}
}

// TestEWMA verifies Equation 3 with r = 0.5 across two windows.
func TestEWMA(t *testing.T) {
	c := New(Config{Capacity: 4, Window: 4, R: 0.5})
	// Window 1: A has p̂ = (1/2)/1 = 0.5.
	c.Access(rd(1, hintA))
	c.Access(rd(1, hintA))
	c.Access(rd(8, hintB))
	c.Access(rd(9, hintB))
	pr := c.Priorities()
	if math.Abs(pr[hintA]-0.25) > 1e-12 {
		t.Fatalf("after window 1: pr(A) = %v, want 0.5·0.5 = 0.25", pr[hintA])
	}
	// Window 2: A unseen → pr(A) = 0.5·0 + 0.5·0.25 = 0.125.
	for p := uint64(20); p < 24; p++ {
		c.Access(rd(p, hintB))
	}
	pr = c.Priorities()
	if math.Abs(pr[hintA]-0.125) > 1e-12 {
		t.Fatalf("after window 2: pr(A) = %v, want 0.125", pr[hintA])
	}
	if c.Windows() != 2 {
		t.Errorf("windows = %d", c.Windows())
	}
}

// TestRZeroDecaysEverything: with r = 1 (the paper's setting), priorities
// reflect only the last window.
func TestROneForgetsOldWindows(t *testing.T) {
	c := New(Config{Capacity: 4, Window: 4, R: 1})
	c.Access(rd(1, hintA))
	c.Access(rd(1, hintA))
	c.Access(rd(8, hintB))
	c.Access(rd(9, hintB))
	if c.Priorities()[hintA] == 0 {
		t.Fatal("pr(A) should be positive after window 1")
	}
	for p := uint64(20); p < 24; p++ {
		c.Access(rd(p, hintB))
	}
	if got := c.Priorities()[hintA]; got != 0 {
		t.Errorf("r=1: pr(A) = %v after a window without A, want 0", got)
	}
}

func TestTopKBoundsTracking(t *testing.T) {
	c := New(Config{Capacity: 8, Window: 10000, TopK: 2})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		// Hints 0 and 1 dominate; hints 2–9 are rare.
		h := hint.ID(rng.Intn(2))
		if rng.Intn(10) == 0 {
			h = hint.ID(2 + rng.Intn(8))
		}
		c.Access(rd(uint64(rng.Intn(50)), h))
	}
	if c.TrackedHintSets() > 2 {
		t.Errorf("TrackedHintSets = %d, want <= 2", c.TrackedHintSets())
	}
	stats := c.WindowStats()
	if len(stats) > 2 {
		t.Errorf("WindowStats returned %d entries", len(stats))
	}
	// The two frequent hints should be the tracked ones.
	for _, s := range stats {
		if s.Hint > 1 {
			t.Errorf("rare hint %d tracked in place of a frequent one", s.Hint)
		}
	}
}

func TestTopKUntrackedGetZeroPriority(t *testing.T) {
	c := New(Config{Capacity: 8, Window: 12, TopK: 2})
	// hintA and hintB are frequent with quick re-references; hintC appears
	// mid-window with a quick re-reference but is displaced from the k=2
	// summary by the time the window closes, so its priority must be zero
	// (§5: untracked hint sets get Pr = 0).
	c.Access(rd(1, hintA))
	c.Access(rd(1, hintA))
	c.Access(rd(2, hintB))
	c.Access(rd(2, hintB))
	c.Access(rd(5, hintC))
	c.Access(rd(5, hintC))
	c.Access(rd(3, hintA))
	c.Access(rd(3, hintA))
	c.Access(rd(4, hintB))
	c.Access(rd(4, hintB))
	c.Access(rd(6, hintA))
	c.Access(rd(6, hintA))
	pr := c.Priorities()
	if pr[hintA] <= 0 {
		t.Errorf("tracked hint A priority = %v, want > 0", pr[hintA])
	}
	if pr[hintC] != 0 {
		t.Errorf("untracked hint C priority = %v, want 0", pr[hintC])
	}
}

// TestInvariantsQuick property-tests CLIC's structural invariants under
// random request streams, with the outqueue disabled, at one entry and at
// a size the streams fill: cache and outqueue bounds plus everything
// checkConsistency verifies, after every request.
func TestInvariantsQuick(t *testing.T) {
	for _, noutq := range []int{NoOutqueue, 1, 20} {
		limit := max(noutq, 0)
		f := func(seed int64, capRaw, topkRaw uint8) bool {
			capacity := int(capRaw % 12)
			topk := int(topkRaw % 4) // 0 = exact mode
			rng := rand.New(rand.NewSource(seed))
			c := New(Config{Capacity: capacity, Window: 50, TopK: topk, Noutq: noutq})
			for i := 0; i < 1200; i++ {
				op := trace.Read
				if rng.Intn(3) == 0 {
					op = trace.Write
				}
				c.Access(trace.Request{
					Page: uint64(rng.Intn(40)),
					Hint: hint.ID(rng.Intn(6)),
					Op:   op,
				})
				if c.Len() > capacity || c.OutqueueLen() > limit {
					t.Logf("Noutq %d, request %d: Len %d (capacity %d), OutqueueLen %d", noutq, i, c.Len(), capacity, c.OutqueueLen())
					return false
				}
				if err := c.checkConsistency(); err != nil {
					t.Logf("Noutq %d, request %d: %v", noutq, i, err)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmChangesNothing drives the warm pass the way processFrame never
// would — on an empty cache, straddling every growth of the page table,
// over pages the cache has never seen, over one page repeated through a
// group, over groups shorter and longer than warmGroup — and then over
// records picked by where they sit: head, middle and tail of a hint set's
// group and of the outqueue, lists of one record (both links nil), and the
// outqueue head just removed and the page just placed. A group longer than
// warmGroup is warmed in pieces, as processFrame would. It requires that
// warm leaves the table bit for bit as it found it and reports each
// page's record position as find does, and that the verdicts that follow
// match a twin cache that was never warmed.
func TestWarmChangesNothing(t *testing.T) {
	cfg := Config{Capacity: 96, Window: 400, TopK: 2}
	warmed, twin := New(cfg), New(cfg)
	rng := rand.New(rand.NewSource(16))
	reqs := shardedTrace(6000, 16)

	warmOn := func(c *Cache, group []trace.Request) {
		t.Helper()
		if err := c.checkConsistency(); err != nil {
			t.Fatalf("before warm: %v", err)
		}
		ents := slices.Clone(c.ents)
		seq, head, tail := c.seq, c.outHead, c.outTail
		var pos [warmGroup]uint32
		for rest := group; len(rest) > 0; {
			piece := rest[:min(warmGroup, len(rest))]
			c.warm(piece, &pos)
			for i, r := range piece {
				if want := c.find(r.Page); pos[i] != want {
					t.Fatalf("warm put page %d at position %d, find at %d", r.Page, pos[i], want)
				}
			}
			rest = rest[len(piece):]
		}
		if !slices.Equal(ents, c.ents) || seq != c.seq || head != c.outHead || tail != c.outTail {
			t.Fatalf("warm over %d requests changed the table", len(group))
		}
		if err := c.checkConsistency(); err != nil {
			t.Fatalf("after warm: %v", err)
		}
	}
	warm := func(group []trace.Request) {
		t.Helper()
		warmOn(warmed, group)
	}
	access := func(next int) {
		t.Helper()
		got, want := warmed.Access(reqs[next]), twin.Access(reqs[next])
		if got != want {
			t.Fatalf("request %d (page %d): hit=%v after warming, %v on the twin", next, reqs[next].Page, got, want)
		}
	}

	warm(nil)
	warm(reqs[:warmGroup]) // empty cache: every probe ends on an empty slot
	grows, shortGroups := 0, 0
	const random = 5000 // requests run under random groups; the rest under picked ones
	for next := 0; next < random; {
		// The group: upcoming requests, as processFrame would pass, then
		// some of them swapped for a never-seen page or for the group's
		// first page.
		n := min(rng.Intn(2*warmGroup+1), random-next)
		if n < warmGroup {
			shortGroups++
		}
		group := slices.Clone(reqs[next : next+n])
		for i := range group {
			switch rng.Intn(4) {
			case 0:
				group[i].Page = 1<<40 + uint64(rng.Intn(1<<20))
			case 1:
				group[i].Page = group[0].Page
			}
		}
		warm(group)
		// Run fewer requests than were warmed as often as more, so that
		// warmed lines go stale under inserts, evictions and backward
		// shifts before their request arrives.
		for run := min(1+rng.Intn(2*warmGroup), random-next); run > 0; run-- {
			size := len(warmed.ents)
			access(next)
			if len(warmed.ents) != size {
				grows++
				warm(group) // stale group against the table just grown
			}
			next++
		}
	}
	if grows < 3 || shortGroups == 0 {
		t.Errorf("the table grew %d times and %d groups were short; the test needs both", grows, shortGroups)
	}

	// Records by position. pagesAt names the records' pages; warm finds the
	// records again through the table, neighbours and all.
	pagesAt := func(c *Cache, idx ...uint32) []trace.Request {
		var group []trace.Request
		for _, i := range idx {
			if i != 0 {
				group = append(group, trace.Request{Page: c.ents[i].page})
			}
		}
		return group
	}
	middles := 0
	for h := range warmed.groups {
		g := &warmed.groups[h]
		mid := warmed.ents[g.head].next // ents[0].next is 0: an empty group picks nothing
		if mid != 0 && mid != g.tail {
			middles++
		}
		warm(pagesAt(warmed, g.head, mid, g.tail))
	}
	outMid := warmed.ents[warmed.outHead].next
	if middles == 0 || outMid == 0 || outMid == warmed.outTail {
		t.Fatalf("%d groups and the outqueue (%d entries) have a middle record; the test needs both", middles, warmed.OutqueueLen())
	}
	warm(pagesAt(warmed, warmed.outHead, outMid, warmed.outTail))

	// Lists of one: a cached page alone in its group and an outqueued page
	// alone in the outqueue have no neighbour on either side.
	lone := New(Config{Capacity: 1, Noutq: 1})
	lone.Access(trace.Request{Page: 7, Hint: 1})
	lone.Access(trace.Request{Page: 8, Hint: 2}) // nothing has a priority yet: not admitted
	if e, o := lone.ents[lone.groups[1].head], lone.ents[lone.outHead]; lone.Len() != 1 || lone.OutqueueLen() != 1 ||
		e.prev != 0 || e.next != 0 || o.prev != 0 || o.next != 0 {
		t.Fatalf("lone cache holds %d + %d records, links %+v %+v", lone.Len(), lone.OutqueueLen(), e, o)
	}
	warmOn(lone, []trace.Request{{Page: 7}, {Page: 8}, {Page: 9}})

	// Removals: whenever a request removed the outqueue's head — its
	// record gone, the run behind it shifted back — warm that page (the
	// probe now ends on an empty slot or another page's record), the page
	// just placed, and the one before it.
	removed := 0
	for next := random; next < len(reqs); next++ {
		head := pagesAt(warmed, warmed.outHead)
		access(next)
		if len(head) == 1 && warmed.find(head[0].Page) == 0 {
			removed++
			warm(append(head, reqs[next], reqs[next-1]))
		}
	}
	if removed == 0 {
		t.Error("no request removed the outqueue's head; the test needs some to")
	}

	if warmed.Len() != twin.Len() || warmed.OutqueueLen() != twin.OutqueueLen() ||
		warmed.Evictions() != twin.Evictions() || warmed.Windows() != twin.Windows() || twin.Evictions() == 0 {
		t.Errorf("end state: warmed %d/%d/%d/%d, twin %d/%d/%d/%d (len/outq/evictions/windows)",
			warmed.Len(), warmed.OutqueueLen(), warmed.Evictions(), warmed.Windows(),
			twin.Len(), twin.OutqueueLen(), twin.Evictions(), twin.Windows())
	}
}

// checkConsistency validates the record store and the structures threaded
// through it: position 0 is the zero record; every used slot is on exactly
// one of a group list and the outqueue list, and every unused one is the
// zero record; find maps each record's page to the record's own position;
// the load is at most 4/5; group lists are seq-ordered with correct keys;
// and the heap holds exactly the non-empty groups, in heap order, with
// correct indices.
func (c *Cache) checkConsistency() error {
	if c.ents[0] != (pageEntry{}) {
		return fmt.Errorf("nil record is %+v", c.ents[0])
	}
	onList := make([]bool, len(c.ents))
	visit := func(i uint32) error {
		if i == 0 || int(i) >= len(c.ents) || !c.ents[i].used {
			return fmt.Errorf("link to %d, not a used slot of the table", i)
		}
		if onList[i] {
			return fmt.Errorf("entry %d linked twice", i)
		}
		onList[i] = true
		return nil
	}

	cached, nonEmpty := 0, 0
	for h := range c.groups {
		g := &c.groups[h]
		if g.head == 0 {
			if g.tail != 0 {
				return fmt.Errorf("group %d: empty with tail %d", h, g.tail)
			}
			continue
		}
		nonEmpty++
		var prev uint32
		for i := g.head; i != 0; i = c.ents[i].next {
			if err := visit(i); err != nil {
				return fmt.Errorf("group %d: %v", h, err)
			}
			e := &c.ents[i]
			if !e.cached || e.hint != hint.ID(h) || e.prev != prev {
				return fmt.Errorf("group %d: entry %d is %+v, want cached, this hint, prev %d", h, i, *e, prev)
			}
			if prev != 0 && e.seq <= c.ents[prev].seq {
				return fmt.Errorf("group %d: entry %d breaks seq order", h, i)
			}
			prev = i
			cached++
		}
		if g.tail != prev {
			return fmt.Errorf("group %d: tail %d, list ends at %d", h, g.tail, prev)
		}
		if g.headSeq != c.ents[g.head].seq {
			return fmt.Errorf("group %d: headSeq %d, head entry has %d", h, g.headSeq, c.ents[g.head].seq)
		}
		if g.pr != c.learner.Priority(hint.ID(h)) {
			return fmt.Errorf("group %d: pr %v, learner says %v", h, g.pr, c.learner.Priority(hint.ID(h)))
		}
		if int(g.heapIdx) >= len(c.heap) || c.heap[g.heapIdx] != hint.ID(h) {
			return fmt.Errorf("group %d: heapIdx %d does not point back", h, g.heapIdx)
		}
	}
	if cached != c.Len() {
		return fmt.Errorf("%d entries in group lists, Len %d", cached, c.Len())
	}
	if len(c.heap) != nonEmpty {
		return fmt.Errorf("heap holds %d groups, %d are non-empty", len(c.heap), nonEmpty)
	}
	for i := 1; i < len(c.heap); i++ {
		if c.heapLess(i, (i-1)/2) {
			return fmt.Errorf("heap order broken at %d", i)
		}
	}

	outq := 0
	var prev uint32
	for i := c.outHead; i != 0; i = c.ents[i].next {
		if err := visit(i); err != nil {
			return fmt.Errorf("outqueue: %v", err)
		}
		if e := &c.ents[i]; e.cached || e.prev != prev {
			return fmt.Errorf("outqueue: entry %d is %+v, want uncached, prev %d", i, *e, prev)
		}
		prev = i
		outq++
	}
	if c.outTail != prev || outq != c.OutqueueLen() {
		return fmt.Errorf("outqueue: tail %d, list ends at %d; %d entries, OutqueueLen %d", c.outTail, prev, outq, c.OutqueueLen())
	}

	slots := len(c.ents) - 1
	if (cached+outq)*5 > slots*4 {
		return fmt.Errorf("table: %d records in %d slots, load above 4/5", cached+outq, slots)
	}
	for i := 1; i <= slots; i++ {
		e := &c.ents[i]
		if !e.used {
			if *e != (pageEntry{}) {
				return fmt.Errorf("unused slot %d is %+v, not the zero record", i, *e)
			}
			continue
		}
		if !onList[i] {
			return fmt.Errorf("slot %d holds page %d on no list", i, e.page)
		}
		if got := c.find(e.page); got != uint32(i) {
			return fmt.Errorf("find(%d) = %d, its record is at %d", e.page, got, i)
		}
	}
	return nil
}

func TestZeroCapacity(t *testing.T) {
	c := New(Config{Capacity: 0, Window: 10})
	for i := 0; i < 50; i++ {
		if c.Access(rd(uint64(i%3), hintA)) {
			t.Fatal("zero-capacity cache hit")
		}
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative capacity should panic")
		}
	}()
	New(Config{Capacity: -1})
}

func TestWriteHitsDoNotCount(t *testing.T) {
	c := New(Config{Capacity: 4, Window: 100})
	c.Access(rd(1, hintA))
	if c.Access(wr(1, hintA)) {
		t.Error("write returned hit")
	}
	if !c.Access(rd(1, hintA)) {
		t.Error("read after write should hit (page stays cached)")
	}
}

func BenchmarkAccessExact(b *testing.B) {
	benchmarkAccess(b, 0)
}

func BenchmarkAccessTopK(b *testing.B) {
	benchmarkAccess(b, 50)
}

func benchmarkAccess(b *testing.B, topk int) {
	rng := rand.New(rand.NewSource(1))
	reqs := make([]trace.Request, 1<<16)
	for i := range reqs {
		op := trace.Read
		if rng.Intn(3) == 0 {
			op = trace.Write
		}
		reqs[i] = trace.Request{
			Page: uint64(rng.Intn(8192)),
			Hint: hint.ID(rng.Intn(64)),
			Op:   op,
		}
	}
	c := New(Config{Capacity: 2048, Window: 10000, TopK: topk})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(reqs[i%len(reqs)])
	}
}
