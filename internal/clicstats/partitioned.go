package clicstats

import (
	"repro/internal/hint"
	"repro/internal/spacesaving"
)

// Partitioned is the single-owner learner: the statistics machinery the
// paper describes for one cache, verbatim. It is not safe for concurrent
// use — exactly like the cache that owns it. A sharded cache running in
// partitioned-learning mode gives each shard its own Partitioned learner
// over a scaled W/N window, so each shard learns only from its own request
// subsequence.
//
// The learner's whole steady state is allocation-free: exact-mode window
// statistics live in a flat table indexed by hint ID (IDs are interned
// densely) with a touched-list so rotation visits only the hint sets seen
// this window, the top-k summary recycles its counters and buckets, and
// the window-boundary blend reuses one scratch estimates map.
type Partitioned struct {
	cfg Config

	// pr holds the priorities in effect during the current window,
	// computed at the last window boundary (Equation 3). blend works on
	// this map, shared with the other learners so their arithmetic cannot
	// drift apart; dense is the same table indexed by hint ID, republished
	// after each blend, and is what Priority reads on the request path.
	pr    map[hint.ID]float64
	dense []float64

	// Exact per-window statistics (TopK == 0): stats is indexed by hint
	// ID, touched lists the IDs with nonzero statistics this window.
	stats   []winStats
	touched []hint.ID
	// Bounded per-window statistics (TopK > 0, §5). tracked is the
	// summary's key index over again, indexed by hint ID (nil = not
	// tracked), so the request path skips the summary's map lookup.
	topk    *spacesaving.Summary[hint.ID, rerefAux]
	tracked []*spacesaving.Counter[hint.ID, rerefAux]

	// fresh is the scratch estimates map handed to blend at each window
	// boundary, cleared (not reallocated) after use.
	fresh map[hint.ID]float64

	sinceRotate int
	windows     int
	epoch       uint64
}

var _ Learner = (*Partitioned)(nil)

// NewPartitioned returns a single-owner learner for the configuration.
func NewPartitioned(cfg Config) *Partitioned {
	cfg.validate()
	p := &Partitioned{
		cfg:   cfg,
		pr:    make(map[hint.ID]float64),
		fresh: make(map[hint.ID]float64),
	}
	if cfg.TopK > 0 {
		p.topk = spacesaving.New[hint.ID, rerefAux](cfg.TopK)
	}
	return p
}

// stat returns the window statistics slot for a hint set, growing the flat
// table when a new ID appears (vocabulary growth only — not steady state)
// and recording first touches of the window.
func (p *Partitioned) stat(h hint.ID) *winStats {
	for int(h) >= len(p.stats) {
		p.stats = append(p.stats, winStats{})
	}
	st := &p.stats[h]
	if st.n == 0 && st.nr == 0 {
		p.touched = append(p.touched, h)
	}
	return st
}

// Arrive implements Learner.
func (p *Partitioned) Arrive(h hint.ID) {
	if p.topk != nil {
		for int(h) >= len(p.tracked) {
			p.tracked = append(p.tracked, nil)
		}
		if ctr := p.tracked[h]; ctr != nil {
			p.topk.Bump(ctr)
			return
		}
		ctr, old, replaced := p.topk.Touch(h)
		if replaced {
			p.tracked[old] = nil
		}
		p.tracked[h] = ctr
		return
	}
	p.stat(h).n++
}

// Reref implements Learner.
func (p *Partitioned) Reref(h hint.ID, dist uint64) {
	if p.topk != nil {
		if int(h) < len(p.tracked) {
			if ctr := p.tracked[h]; ctr != nil {
				ctr.Val.nr++
				ctr.Val.dsum += float64(dist)
			}
		}
		return
	}
	// The prior request that established the record may have arrived in an
	// earlier window; stats were cleared since. stat starts a fresh entry
	// so the re-reference still informs this window's priorities.
	st := p.stat(h)
	st.nr++
	st.dsum += float64(dist)
}

// EndRequest implements Learner: it counts the request against the window
// and rotates at the boundary (§3.2).
func (p *Partitioned) EndRequest() bool {
	p.sinceRotate++
	if p.sinceRotate < p.cfg.Window {
		return false
	}
	p.fillEstimates()
	blend(p.pr, p.fresh, p.cfg.R)
	clear(p.fresh)
	clear(p.dense)
	for h, pr := range p.pr {
		for int(h) >= len(p.dense) {
			p.dense = append(p.dense, 0)
		}
		p.dense[h] = pr
	}
	if p.topk != nil {
		p.topk.Reset()
		clear(p.tracked)
	} else {
		for _, h := range p.touched {
			p.stats[h] = winStats{}
		}
		p.touched = p.touched[:0]
	}
	p.sinceRotate = 0
	p.windows++
	p.epoch++
	return true
}

// fillEstimates computes p̂r for every hint set with statistics in the
// current window into the scratch map.
func (p *Partitioned) fillEstimates() {
	if p.topk != nil {
		p.topk.Range(func(ctr *spacesaving.Counter[hint.ID, rerefAux]) {
			// §5: N(H) is the frequency estimate minus the error bound.
			p.fresh[ctr.Key] = windowPriority(ctr.Count-ctr.Err, ctr.Val.nr, ctr.Val.dsum)
		})
		return
	}
	for _, h := range p.touched {
		st := &p.stats[h]
		p.fresh[h] = windowPriority(st.n, st.nr, st.dsum)
	}
}

// Priority implements Learner.
func (p *Partitioned) Priority(h hint.ID) float64 {
	if int(h) < len(p.dense) {
		return p.dense[h]
	}
	return 0
}

// Epoch implements Learner.
func (p *Partitioned) Epoch() uint64 { return p.epoch }

// Windows implements Learner.
func (p *Partitioned) Windows() int { return p.windows }

// Priorities implements Learner.
func (p *Partitioned) Priorities() map[hint.ID]float64 {
	out := make(map[hint.ID]float64, len(p.pr))
	for h, pr := range p.pr {
		out[h] = pr
	}
	return out
}

// WindowStats implements Learner.
func (p *Partitioned) WindowStats() []HintStat {
	var out []HintStat
	if p.topk != nil {
		for _, ctr := range p.topk.Counters() {
			out = append(out, newHintStat(ctr.Key, ctr.Count-ctr.Err, ctr.Val.nr, ctr.Val.dsum))
		}
	} else {
		for _, h := range p.touched {
			st := &p.stats[h]
			out = append(out, newHintStat(h, st.n, st.nr, st.dsum))
		}
	}
	SortHintStats(out)
	return out
}

// TrackedHintSets implements Learner.
func (p *Partitioned) TrackedHintSets() int {
	if p.topk != nil {
		return p.topk.Len()
	}
	return len(p.touched)
}
