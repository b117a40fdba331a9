package clicstats

import (
	"repro/internal/hint"
	"repro/internal/spacesaving"
)

// window is one statistics window's raw counters — N(H), Nr(H) and the
// re-reference distance sum per hint set (Equations 1–2), exact or bounded
// to k hint sets by the adapted Space-Saving summary (§5). It has no lock
// and no priority table: a lone Learner embeds one, and Global keeps the
// one every tap flushes into under its counter lock. Both count through
// this one type, so fed the same events in the same order they hold the
// same counters, top-k replacements included.
//
// The steady state allocates nothing: exact statistics live in a flat table
// indexed by hint ID (IDs are interned densely) with a touched-list so a
// rotation visits only the hint sets seen this window, and the top-k summary
// keeps its slab across resets.
type window struct {
	// Bounded statistics (§5), first because a lone Learner's request path
	// reads them on every request. tracked is the summary's key index over
	// again — the counter's slot indexed by hint ID, 0 = not tracked — so
	// the request path skips the summary's map lookup.
	topk    *spacesaving.Summary[hint.ID, rerefAux]
	tracked []uint32
	// Exact statistics (topk == nil): stats is indexed by hint ID, touched
	// lists the IDs with nonzero statistics this window.
	stats   []winStats
	touched []hint.ID
}

// newWindow returns an empty window tracking every hint set (topK == 0) or
// the topK most frequent.
func newWindow(topK int) window {
	var w window
	if topK > 0 {
		w.topk = spacesaving.New[hint.ID, rerefAux](topK)
	}
	return w
}

// stat returns the exact-mode slot for a hint set, growing the flat table
// when a new ID appears (vocabulary growth only — not steady state) and
// recording first touches of the window.
func (w *window) stat(h hint.ID) *winStats {
	for int(h) >= len(w.stats) {
		w.stats = append(w.stats, winStats{})
	}
	st := &w.stats[h]
	if st.n == 0 && st.nr == 0 {
		w.touched = append(w.touched, h)
	}
	return st
}

// Arrive counts one request carrying hint set h. A lone Learner's Arrive
// does the tracked case itself, inline, and leaves the rest to this.
func (w *window) Arrive(h hint.ID) {
	if w.topk == nil {
		w.stat(h).n++
		return
	}
	for int(h) >= len(w.tracked) {
		w.tracked = append(w.tracked, 0)
	}
	if slot := w.tracked[h]; slot != 0 {
		w.topk.Bump(slot)
		return
	}
	slot, old, replaced := w.topk.Touch(h)
	if replaced {
		w.tracked[old] = 0
	}
	w.tracked[h] = slot
}

// Reref credits hint set h with a read re-reference at the given distance
// (Learner's Reref). In top-k mode the credit is dropped unless h is tracked
// (§5).
func (w *window) Reref(h hint.ID, dist uint64) {
	if w.topk == nil {
		// The request that established the record may have arrived in an
		// earlier window, its statistics cleared since; stat starts a fresh
		// entry so the re-reference still informs this window's priorities.
		st := w.stat(h)
		st.nr++
		st.dsum += float64(dist)
		return
	}
	if int(h) < len(w.tracked) {
		if slot := w.tracked[h]; slot != 0 {
			aux := &w.topk.At(slot).Val
			aux.nr++
			aux.dsum += float64(dist)
		}
	}
}

// each calls fn with the raw counters of every hint set that has statistics
// in the window, in no particular order. fn must not touch the window.
func (w *window) each(fn func(WindowCounter)) {
	if w.topk == nil {
		for _, h := range w.touched {
			st := &w.stats[h]
			fn(WindowCounter{Hint: h, N: st.n, Nr: st.nr, Dsum: st.dsum})
		}
		return
	}
	w.topk.Range(func(ctr *spacesaving.Counter[hint.ID, rerefAux]) {
		// §5: N(H) is the frequency estimate minus the error bound.
		fn(WindowCounter{Hint: ctr.Key, N: ctr.Count - ctr.Err, Nr: ctr.Val.nr, Dsum: ctr.Val.dsum})
	})
}

// reset empties the window for the next one (§3.2).
func (w *window) reset() {
	if w.topk != nil {
		w.topk.Reset()
		clear(w.tracked)
		return
	}
	for _, h := range w.touched {
		w.stats[h] = winStats{}
	}
	w.touched = w.touched[:0]
}

// len returns the number of hint sets with statistics (at most k in top-k
// mode).
func (w *window) len() int {
	if w.topk != nil {
		return w.topk.Len()
	}
	return len(w.touched)
}

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
