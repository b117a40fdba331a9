package clicstats

import (
	"sync"
	"sync/atomic"

	"repro/internal/hint"
)

// This file keeps the learner that Global replaced. refGlobal is the
// former Global's rotation and read side, verbatim, fed serially straight
// into its window — what a tap amounts to when one goroutine drives it — as
// the independent serial reference of TestTapSerialEqualsPartitioned. Its
// Equation 3 is the former map blend and densify, kept below verbatim, so
// the reference shares no priority arithmetic with Global but Equation 2.

// globalTable is one published priority table of the former Global. dense
// is pr indexed by hint ID, which the request path read.
type globalTable struct {
	pr    map[hint.ID]float64
	dense []float64
	epoch uint64
}

// refGlobal is the former Global reduced to its local-only rotation.
type refGlobal struct {
	cfg Config

	table   atomic.Pointer[globalTable]
	windows atomic.Int64
	// rotateMu serializes rotations: with small windows or long frames two
	// taps can reach their boundaries together.
	rotateMu sync.Mutex

	mu  sync.Mutex
	win window

	// requests counts the requests ended so far (the serial feed).
	requests int
}

func newRefGlobal(cfg Config) *refGlobal {
	cfg.validate()
	g := &refGlobal{cfg: cfg, win: newWindow(cfg.TopK)}
	g.table.Store(&globalTable{pr: map[hint.ID]float64{}})
	return g
}

// rotate closes the current window: it drains the shared counters, blends
// the fresh estimates into a copy of the priority table (Equation 3), and
// republishes the table with the next epoch.
func (g *refGlobal) rotate() {
	g.rotateMu.Lock()
	defer g.rotateMu.Unlock()

	g.mu.Lock()
	local := make([]WindowCounter, 0, g.win.len())
	g.win.each(func(wc WindowCounter) { local = append(local, wc) })
	g.win.reset()
	g.mu.Unlock()

	fresh := make(map[hint.ID]float64, len(local))
	for _, wc := range local {
		fresh[wc.Hint] = WindowPriority(wc.N, wc.Nr, wc.Dsum)
	}

	old := g.table.Load()
	pr := make(map[hint.ID]float64, len(old.pr)+len(fresh))
	for h, v := range old.pr {
		pr[h] = v
	}
	blend(pr, fresh, g.cfg.R)
	g.table.Store(&globalTable{pr: pr, dense: densify(nil, pr), epoch: old.epoch + 1})
	g.windows.Add(1)
}

// Epoch identifies the table currently in effect; wait-free.
func (g *refGlobal) Epoch() uint64 { return g.table.Load().epoch }

// Windows returns the number of completed statistics windows.
func (g *refGlobal) Windows() int { return int(g.windows.Load()) }

// Priorities returns a copy of the priority table in effect.
func (g *refGlobal) Priorities() map[hint.ID]float64 {
	pr := g.table.Load().pr
	out := make(map[hint.ID]float64, len(pr))
	for h, v := range pr {
		out[h] = v
	}
	return out
}

// The serial feed: events go straight into the window, and every W-th
// request rotates.
func (g *refGlobal) Arrive(h hint.ID)             { g.win.Arrive(h) }
func (g *refGlobal) Reref(h hint.ID, dist uint64) { g.win.Reref(h, dist) }
func (g *refGlobal) EndRequest() bool {
	if g.requests++; g.requests%g.cfg.Window != 0 {
		return false
	}
	g.rotate()
	return true
}

// blend folds one window's fresh estimates into the priority table with
// decay r (Equation 3), in place: entries unseen this window decay by
// (1-r) and are pruned once negligible, seen entries become
// r·p̂ + (1-r)·old. The former Global's, verbatim.
func blend(pr map[hint.ID]float64, fresh map[hint.ID]float64, r float64) {
	for h, old := range pr {
		if _, seen := fresh[h]; seen {
			continue
		}
		nv := (1 - r) * old
		if nv < eps {
			delete(pr, h)
			continue
		}
		pr[h] = nv
	}
	for h, phat := range fresh {
		pr[h] = r*phat + (1-r)*pr[h]
	}
}

// densify rebuilds dst as the priority table pr indexed by hint ID — what
// Priority reads on the request path — reusing dst's storage. The former
// Global's, verbatim.
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
