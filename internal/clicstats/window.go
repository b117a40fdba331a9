package clicstats

import (
	"math"

	"repro/internal/hint"
	"repro/internal/spacesaving"
)

// window is one statistics window's raw counters — N(H), Nr(H) and the
// re-reference distance sum per hint set (Equations 1–2) — in one adapted
// Space-Saving summary (§5). It has no lock and no priority table: every
// Learner embeds one, so fed the same events in the same order two
// learners hold the same counters, top-k replacements included.
//
// Exact mode is the summary with no bound: k is above any hint vocabulary,
// so it never replaces, every error bound stays 0, and N(H) is the count.
// The modes then differ in one rule, in Reref. The steady state allocates
// nothing: the summary keeps its slab and index across resets, and a reset
// visits only the hint sets tracked this window.
type window struct {
	// sum is held by value and leads, so that its index and slab headers
	// share the cache line a Learner's request path reads.
	sum spacesaving.Summary[hint.ID, rerefAux]
	// exact says sum is unbounded (TopK 0).
	exact bool
}

// newWindow returns an empty window tracking every hint set (topK == 0) or
// the topK most frequent.
func newWindow(topK int) window {
	k := topK
	if topK == 0 {
		k = math.MaxInt // New caps it at the most slots there can be
	}
	return window{sum: *spacesaving.New[hint.ID, rerefAux](k), exact: topK == 0}
}

// Arrive counts one request carrying hint set h. A Learner's Arrive counts
// a tracked hint set itself, inline, and leaves the rest to this.
func (w *window) Arrive(h hint.ID) { w.sum.Touch(h) }

// Reref credits hint set h with a read re-reference at the given distance
// (Learner's Reref). The request that set up the record may have arrived in
// an earlier window, so h may have no counter in this one. Only here do the
// modes differ: exact mode opens a counter for h at count 0, so the
// re-reference still informs this window's priorities; top-k mode drops
// the credit unless h is tracked (§5).
func (w *window) Reref(h hint.ID, dist uint64) {
	slot := w.sum.Slot(h)
	if slot == 0 {
		if !w.exact {
			return
		}
		slot = w.sum.Open(h)
	}
	aux := &w.sum.At(slot).Val
	aux.nr++
	aux.dsum += float64(dist)
}

// each calls fn with the raw counters of every hint set that has statistics
// in the window, in no particular order. fn must not touch the window.
func (w *window) each(fn func(WindowCounter)) {
	w.sum.Range(func(ctr *spacesaving.Counter[hint.ID, rerefAux]) {
		// §5: N(H) is the frequency estimate minus the error bound.
		fn(WindowCounter{Hint: ctr.Key, N: ctr.Count - ctr.Err, Nr: ctr.Val.nr, Dsum: ctr.Val.dsum})
	})
}

// reset empties the window for the next one (§3.2).
func (w *window) reset() { w.sum.Reset() }

// len returns the number of hint sets with statistics (at most k in top-k
// mode).
func (w *window) len() int { return w.sum.Len() }

// hintStats snapshots the window, sorted by descending N.
func (w *window) hintStats() []HintStat {
	var out []HintStat
	w.each(func(wc WindowCounter) {
		out = append(out, newHintStat(wc.Hint, wc.N, wc.Nr, wc.Dsum))
	})
	SortHintStats(out)
	return out
}

// densify rebuilds dst as the priority table pr indexed by hint ID — what
// Priority reads on the request path — reusing dst's storage.
func densify(dst []float64, pr map[hint.ID]float64) []float64 {
	clear(dst)
	for h, v := range pr {
		for int(h) >= len(dst) {
			dst = append(dst, 0)
		}
		dst[h] = v
	}
	return dst
}
