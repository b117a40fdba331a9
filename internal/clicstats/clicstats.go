// Package clicstats is CLIC's hint-statistics learner, factored out of the
// cache so that priority learning and page placement are independent design
// axes. The learner owns everything the paper's §3 calls "statistics
// gathering": the per-window counters N(H), Nr(H) and the re-reference
// distance sum behind D(H) (Equations 1–2), the window rotation with decay
// blending r (Equation 3), and the resulting priority table Pr(H).
//
// The counters live in one adapted Space-Saving summary (§5), bounded to
// TopK hint sets or, in exact mode (TopK 0), never replacing. The modes
// differ in one crediting rule, which window.Reref states.
//
// A Learner is always a tap (Global.Tap) that feeds and reads a Global.
// Every shard of a core.Sharded front has a tap on the front's one Global:
// page placement stays hash-partitioned while the priority model is learned
// from the full cache-wide request stream over the full window W. A plain
// core.Cache learns through the only tap on a Global of its own
// (NewPartitioned). Each tap counts in a window of its own, with no lock;
// at every multiple of W one tap sums all the taps' windows into a round,
// taking the idle ones and leaving the leased ones to hand theirs in at
// their lease's end, and the round's publication computes Equations 2–3,
// the one place they run. Each tap reads its own copy of the round's
// table, taken at its next lease. On a cluster node the same Global also
// publishes each round to its peers and absorbs theirs into its next one.
//
// Driven by one goroutine, taps on a Global produce exactly the same
// priorities as one window fed the whole stream in exact mode, and in
// top-k mode with one tap; with several taps top-k mode sums per-tap
// summaries, which keeps Space-Saving's error bounds but not its
// replacements (see Global). The request-path calls are concrete methods
// that inline into the cache; the rest sits behind calls.
//
// The caller (the cache) remains responsible for page-level work: detecting
// re-references via its page and outqueue records, and re-keying its victim
// heap when the priority table changes. The Epoch method makes the latter
// cheap: the epoch advances on every rotation, so a cache compares it to
// the epoch it last synced at and rebuilds only then.
package clicstats

import (
	"sort"

	"repro/internal/hint"
)

// Config parameterises a learner. Unlike core.Config it carries no
// defaults: the cache layer resolves those before constructing a learner.
type Config struct {
	// Window is W, the number of requests per statistics window (> 0).
	Window int
	// R is the exponential decay parameter r in (0, 1] (Equation 3).
	R float64
	// TopK bounds hint-set tracking to the k most frequent hint sets with
	// the adapted Space-Saving summary (§5); 0 tracks all hint sets.
	TopK int
}

func (cfg Config) validate() {
	if cfg.Window <= 0 {
		panic("clicstats: Window must be positive")
	}
	if !(cfg.R > 0 && cfg.R <= 1) {
		panic("clicstats: R must be in (0, 1]")
	}
	if cfg.TopK < 0 {
		panic("clicstats: TopK must not be negative")
	}
}

// WindowCounter is one hint set's raw window counters — the pre-division
// inputs of Equation 2. It is the exchange currency of cluster-wide
// learning: a rotation drains the window into these, a wire.SummaryEntry
// is one of them keyed by canonical string instead of local hint ID, and
// Global.Absorb folds a peer's counters back in by summing them.
type WindowCounter struct {
	Hint hint.ID
	N    uint64
	Nr   uint64
	Dsum float64
}

// rerefAux is the auxiliary state the adapted Space-Saving algorithm keeps
// per tracked hint set (§5): read re-references and distance sum
// accumulated while the hint set was being tracked.
type rerefAux struct {
	nr   uint64
	dsum float64
}

// WindowPriority computes the within-window priority estimate
// p̂r(H) = fhit(H)/D(H) = (nr/n)/(dsum/nr) = nr² / (n·dsum), Equation 2,
// from one hint set's raw counters.
func WindowPriority(n, nr uint64, dsum float64) float64 {
	if n == 0 || nr == 0 || dsum <= 0 {
		return 0
	}
	return float64(nr) * float64(nr) / (float64(n) * dsum)
}

// eps is the threshold below which a decayed priority is dropped from the
// table. A missing entry reads as priority 0, so pruning is invisible to
// Priority lookups; it only bounds the table's size.
const eps = 1e-12

// HintStat is an analysis snapshot of one hint set's statistics, used to
// regenerate the paper's Figure 3 scatter plot and the server's /stats
// window view.
type HintStat struct {
	Hint hint.ID
	N    uint64
	Nr   uint64
	D    float64 // mean read re-reference distance (0 when Nr == 0)
	Pr   float64 // p̂r computed from this snapshot's statistics
}

// newHintStat assembles one snapshot entry from raw window counters.
func newHintStat(h hint.ID, n, nr uint64, dsum float64) HintStat {
	hs := HintStat{Hint: h, N: n, Nr: nr}
	if nr > 0 {
		hs.D = dsum / float64(nr)
	}
	hs.Pr = WindowPriority(n, nr, dsum)
	return hs
}

// SortHintStats orders snapshots by descending N, ties broken by hint ID.
func SortHintStats(out []HintStat) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].N != out[j].N {
			return out[i].N > out[j].N
		}
		return out[i].Hint < out[j].Hint
	})
}
