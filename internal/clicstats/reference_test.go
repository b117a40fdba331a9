package clicstats

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hint"
)

// This file keeps the cluster learner that Global replaced, as the oracle
// FuzzGlobalAbsorb checks Global's publish and absorb against. refMerged is
// the former Merged, verbatim but for its local-bias weighting, which is
// fixed at 0 here (its branches are dropped). It wrapped the former
// Global's rotation through a mergeFresh hook; refGlobal keeps that
// rotation and the read side, verbatim, and is fed serially straight into
// its window — what a tap amounts to when one goroutine drives it — as the
// independent serial reference of TestTapSerialEqualsPartitioned. Its
// Equation 3 is the former map blend and densify, kept below verbatim, so
// the reference shares no priority arithmetic with Global but Equation 2.

// globalTable is one published priority table of the former Global. dense
// is pr indexed by hint ID, which the request path read.
type globalTable struct {
	pr    map[hint.ID]float64
	dense []float64
	epoch uint64
}

// winStats are the per-window statistics for one hint set.
type winStats struct {
	n    uint64  // N(H): requests with this hint set this window
	nr   uint64  // Nr(H): read re-references credited to this hint set
	dsum float64 // sum of re-reference distances (D(H) = dsum/nr)
}

// refGlobal is the former Global reduced to what refMerged reaches.
type refGlobal struct {
	cfg Config

	table   atomic.Pointer[globalTable]
	windows atomic.Int64
	// rotateMu serializes rotations: with small windows or long frames two
	// taps can reach their boundaries together.
	rotateMu sync.Mutex
	// mergeFresh, when non-nil, replaces the default local-only fresh
	// estimates at rotation with ones computed from the drained window
	// counters plus whatever else the wrapper knows — Merged hooks in here
	// to fold counters absorbed from cluster peers. Called under rotateMu
	// and no other lock.
	mergeFresh func(local []WindowCounter) map[hint.ID]float64

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

	var fresh map[hint.ID]float64
	if g.mergeFresh != nil {
		fresh = g.mergeFresh(local)
	} else {
		fresh = make(map[hint.ID]float64, len(local))
		for _, wc := range local {
			fresh[wc.Hint] = WindowPriority(wc.N, wc.Nr, wc.Dsum)
		}
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

// refMerged is the former cluster-mode learner.
type refMerged struct {
	*refGlobal

	// publish, when set, receives each closed window's local counters and
	// the merge round that closed it. Set once, before traffic.
	publish func(round uint64, local []WindowCounter)

	// mu guards pending and nothing else. Absorb must not need the Global's
	// locks: a peer calls it from inside its own rotation, possibly while
	// this node is inside one of its own calling Absorb on that peer.
	mu      sync.Mutex
	pending map[hint.ID]*winStats

	rounds   atomic.Uint64
	absorbed atomic.Uint64
}

func newRefMerged(cfg Config) *refMerged {
	m := &refMerged{pending: make(map[hint.ID]*winStats)}
	m.refGlobal = newRefGlobal(cfg)
	m.refGlobal.mergeFresh = m.fold
	return m
}

// SetPublish installs the summary publication hook. It must be called
// before the learner sees traffic; the hook runs under the rotation lock,
// so it must not call back into the learner.
func (m *refMerged) SetPublish(fn func(round uint64, local []WindowCounter)) {
	m.publish = fn
}

// Absorb folds one peer summary's window counters into the pending pool;
// they take effect at this node's next rotation. Safe for concurrent use
// with the request path.
func (m *refMerged) Absorb(counters []WindowCounter) {
	m.mu.Lock()
	for _, wc := range counters {
		ws, ok := m.pending[wc.Hint]
		if !ok {
			ws = &winStats{}
			m.pending[wc.Hint] = ws
		}
		ws.n += wc.N
		ws.nr += wc.Nr
		ws.dsum += wc.Dsum
	}
	m.mu.Unlock()
	m.absorbed.Add(1)
}

// Rounds returns the number of merge rounds (window rotations) completed.
func (m *refMerged) Rounds() uint64 { return m.rounds.Load() }

// Absorbed returns the number of peer summaries folded in so far.
func (m *refMerged) Absorbed() uint64 { return m.absorbed.Load() }

// PendingHintSets returns the number of hint sets with remote counters
// waiting for the next rotation.
func (m *refMerged) PendingHintSets() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// fold is the mergeFresh hook: publish the local window, swap out the
// pending remote counters, and estimate each hint set from the sum of
// both. Runs under the rotation lock.
func (m *refMerged) fold(local []WindowCounter) map[hint.ID]float64 {
	round := m.rounds.Add(1)
	if m.publish != nil {
		m.publish(round, local)
	}

	m.mu.Lock()
	pending := m.pending
	m.pending = make(map[hint.ID]*winStats)
	m.mu.Unlock()

	fresh := make(map[hint.ID]float64, len(local)+len(pending))
	for _, wc := range local {
		n, nr, dsum := wc.N, wc.Nr, wc.Dsum
		if ws, ok := pending[wc.Hint]; ok {
			n += ws.n
			nr += ws.nr
			dsum += ws.dsum
			delete(pending, wc.Hint)
		}
		fresh[wc.Hint] = WindowPriority(n, nr, dsum)
	}
	// Hint sets only peers saw this round.
	for h, ws := range pending {
		fresh[h] = WindowPriority(ws.n, ws.nr, ws.dsum)
	}
	return fresh
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

// published is one call of a publish hook.
type published struct {
	round uint64
	local []WindowCounter
}

// absorbConfig decodes a fuzz input's first byte: W of 1–8, exact or top-2
// or top-3, and r of 1, 1/2 or 1/4.
func absorbConfig(b byte) Config {
	return Config{Window: 1 + int(b&7), TopK: []int{0, 0, 2, 3}[b>>3&3], R: []float64{1, 0.5, 0.25, 1}[b>>5&3]}
}

// FuzzGlobalAbsorb drives a Global, through one tap, and refMerged with the
// same interleaving of requests, peer summaries and rotations, and checks
// them equal at every rotation: the priority table, the epoch, every
// publish so far (round and counters), the summaries absorbed and the hint
// sets pending. Input: a config byte, then ops. An op byte with its low two
// bits 0 absorbs a summary of up to three counters read from the bytes
// after it; otherwise it leases a frame of 1–32 requests, one byte each: a
// hint of 0–9, and a re-reference at distance 1–8 when the top bit is set.
// With the config byte's top bit set, each publish hook also absorbs what
// it publishes back into its own learner, which is legal inside a rotation
// and puts the hook's order against the pending swap under test.
func FuzzGlobalAbsorb(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	for _, cfg := range []byte{0x00, 0x03, 0x0a, 0x17, 0x25, 0x8b, 0xc2, 0xf4} {
		ops := []byte{cfg}
		for i := 0; i < 300; i++ {
			ops = append(ops, byte(rng.Intn(256)))
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		cfg, echo := absorbConfig(ops[0]), ops[0]&0x80 != 0
		g, ref := NewGlobal(cfg), newRefMerged(cfg)
		tp := g.Tap()
		var gotPub, wantPub []published
		g.SetPublish(func(round uint64, local []WindowCounter) {
			gotPub = append(gotPub, published{round, append([]WindowCounter(nil), local...)})
			if echo {
				g.Absorb(local)
			}
		})
		ref.SetPublish(func(round uint64, local []WindowCounter) {
			wantPub = append(wantPub, published{round, append([]WindowCounter(nil), local...)})
			if echo {
				ref.Absorb(local)
			}
		})
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		ops = ops[1:]
		for reqs := 0; len(ops) > 0; {
			op := next()
			if op&3 == 0 {
				counters := make([]WindowCounter, op>>2&3)
				for i := range counters {
					counters[i] = WindowCounter{Hint: hint.ID(next() % 12), N: uint64(next() % 8), Nr: uint64(next() % 4), Dsum: float64(next() % 16)}
				}
				g.Absorb(counters)
				ref.Absorb(counters)
				continue
			}
			n := 1 + int(op>>2&31)
			tp.Begin(n)
			for i := 0; i < n; i++ {
				b := next()
				h := hint.ID(b & 15 % 10)
				tp.Arrive(h)
				ref.Arrive(h)
				if b&0x80 != 0 {
					d := uint64(1 + b>>4&7)
					tp.Reref(h, d)
					ref.Reref(h, d)
				}
				got, want := tp.EndRequest(), ref.EndRequest()
				if reqs++; got != want {
					t.Fatalf("%+v request %d: rotated %v, reference %v", cfg, reqs, got, want)
				}
				if !got {
					continue
				}
				e := uint64(g.Windows())
				if e != ref.Epoch() || g.Windows() != ref.Windows() || e != ref.Rounds() {
					t.Fatalf("%+v request %d: windows %d; reference epoch %d windows %d rounds %d", cfg, reqs, g.Windows(), ref.Epoch(), ref.Windows(), ref.Rounds())
				}
				if gp, rp := g.Priorities(), ref.Priorities(); !reflect.DeepEqual(gp, rp) {
					t.Fatalf("%+v epoch %d: priorities %v, reference %v", cfg, e, gp, rp)
				}
				if !reflect.DeepEqual(gotPub, wantPub) {
					t.Fatalf("%+v epoch %d: published %+v, reference %+v", cfg, e, gotPub, wantPub)
				}
				if g.Absorbed() != ref.Absorbed() || g.PendingHintSets() != ref.PendingHintSets() {
					t.Fatalf("%+v epoch %d: absorbed %d pending %d; reference %d %d", cfg, e, g.Absorbed(), g.PendingHintSets(), ref.Absorbed(), ref.PendingHintSets())
				}
			}
		}
	})
}
