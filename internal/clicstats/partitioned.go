package clicstats

import "repro/internal/hint"

// Partitioned is the single-owner learner: the statistics machinery the
// paper describes for one cache, verbatim. It is not safe for concurrent
// use — exactly like the cache that owns it. A sharded cache running in
// partitioned-learning mode gives each shard its own Partitioned learner
// over a scaled W/N window, so each shard learns only from its own request
// subsequence.
//
// The learner's whole steady state is allocation-free: the window counters
// recycle (see window), and the window-boundary blend reuses one scratch
// estimates map.
type Partitioned struct {
	// window holds the current window's counters and supplies Arrive and
	// Reref.
	window

	cfg Config

	// pr holds the priorities in effect during the current window,
	// computed at the last window boundary (Equation 3). blend works on
	// this map, shared with the other learners so their arithmetic cannot
	// drift apart; dense is the same table indexed by hint ID, republished
	// after each blend, and is what Priority reads on the request path.
	pr    map[hint.ID]float64
	dense []float64

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
	return &Partitioned{
		cfg:    cfg,
		pr:     make(map[hint.ID]float64),
		window: newWindow(cfg.TopK),
		fresh:  make(map[hint.ID]float64),
	}
}

// EndRequest implements Learner: it counts the request against the window
// and rotates at the boundary (§3.2).
func (p *Partitioned) EndRequest() bool {
	p.sinceRotate++
	if p.sinceRotate < p.cfg.Window {
		return false
	}
	p.window.each(func(wc WindowCounter) {
		p.fresh[wc.Hint] = windowPriority(wc.N, wc.Nr, wc.Dsum)
	})
	blend(p.pr, p.fresh, p.cfg.R)
	clear(p.fresh)
	p.dense = densify(p.dense, p.pr)
	p.window.reset()
	p.sinceRotate = 0
	p.windows++
	p.epoch++
	return true
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
func (p *Partitioned) WindowStats() []HintStat { return p.window.hintStats() }

// TrackedHintSets implements Learner.
func (p *Partitioned) TrackedHintSets() int { return p.window.len() }
