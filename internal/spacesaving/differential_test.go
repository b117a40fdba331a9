package spacesaving

import (
	"math"
	"math/rand"
	"testing"
)

// pair drives the flat Summary and the stream-summary it replaced (see
// reference_test.go) with one stream and fails at the first step on which
// they differ in anything a caller can see. Val accumulates a per-step
// number, so a counter whose Val survived a replacement or a Reset on one
// side only shows up too.
type pair struct {
	t    testing.TB
	sum  *Summary[uint32, uint64]
	ref  *refSummary[uint32, uint64]
	step uint64
}

// handle names one counter on both sides: the flat summary's slot and the
// stream-summary's counter, which a replacement reassigns alike.
type handle struct {
	slot uint32
	rc   *refCounter[uint32, uint64]
}

func newPair(t testing.TB, k int) *pair {
	return &pair{t: t, sum: New[uint32, uint64](k), ref: newRef[uint32, uint64](k)}
}

// touch feeds key to both sides and returns the counter's handle, for a
// later bump, and the key the stream-summary replaced, if any, which the
// flat summary must have stopped tracking too.
func (p *pair) touch(key uint32) (h handle, old uint32, replaced bool) {
	p.step++
	slot := p.sum.Touch(key)
	rc, old, replaced := p.ref.Touch(key)
	h = handle{slot, rc}
	if replaced && p.sum.Slot(old) != 0 {
		p.t.Fatalf("step %d: Touch(%d) replaced %d in the stream-summary, which the flat summary still tracks",
			p.step, key, old)
	}
	p.sum.At(slot).Val += p.step
	rc.Val += p.step
	p.same(h)
	return h, old, replaced
}

func (p *pair) bump(h handle) {
	p.step++
	p.sum.Bump(h.slot)
	p.ref.Bump(h.rc)
	p.same(h)
}

func (p *pair) reset() {
	p.sum.Reset()
	p.ref.Reset()
}

// same compares the counter just incremented and the summaries' totals.
func (p *pair) same(h handle) {
	c, rc := p.sum.At(h.slot), h.rc
	if c.Key != rc.Key || c.Count != rc.Count || c.Err != rc.Err || c.Val != rc.Val {
		p.t.Fatalf("step %d: counter {key %d count %d err %d val %d}, stream-summary {key %d count %d err %d val %d}",
			p.step, c.Key, c.Count, c.Err, c.Val, rc.Key, rc.Count, rc.Err, rc.Val)
	}
	if p.sum.Observed() != p.ref.Observed() || p.sum.Len() != p.ref.Len() {
		p.t.Fatalf("step %d: observed %d len %d, stream-summary observed %d len %d",
			p.step, p.sum.Observed(), p.sum.Len(), p.ref.Observed(), p.ref.Len())
	}
}

// sameCounters compares the full Counters() sequences, which pins the order
// within a count (most recently incremented first) as well as the contents.
func (p *pair) sameCounters() {
	got, want := p.sum.Counters(), p.ref.Counters()
	if len(got) != len(want) {
		p.t.Fatalf("step %d: %d counters, stream-summary %d", p.step, len(got), len(want))
	}
	for i, c := range got {
		if rc := want[i]; c.Key != rc.Key || c.Count != rc.Count || c.Err != rc.Err || c.Val != rc.Val {
			p.t.Fatalf("step %d: Counters()[%d] = {key %d count %d err %d val %d}, stream-summary {key %d count %d err %d val %d}",
				p.step, i, c.Key, c.Count, c.Err, c.Val, rc.Key, rc.Count, rc.Err, rc.Val)
		}
	}
}

// TestSummaryMatchesStreamSummary replays seeded random streams — k from 1
// to 40 and 100, key universes from 1 to 5000, Zipf draws of exponent 1.05
// to 2.1 mixed with uniform ones, one touch in four followed by a bump
// through the returned handle, occasional Resets — through both structures.
// The victim of every replacement is decided by the tie rule (minimum count,
// most recently incremented), so reversing the stamp comparison in
// heapEntry.before fails this on the first tie.
func TestSummaryMatchesStreamSummary(t *testing.T) {
	const seeds, steps = 240, 4000
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(41)
		if k == 41 {
			k = 100
		}
		// Log-uniform universe, so that streams that fit in k, streams
		// that just overflow it and streams that churn all get seeds.
		universe := int(math.Exp(rng.Float64() * math.Log(5001)))
		zipf := rand.NewZipf(rng, 1.05+1.05*rng.Float64(), 1, uint64(universe-1))
		uniform := rng.Float64() / 2
		p := newPair(t, k)
		for i := 0; i < steps; i++ {
			key := uint32(zipf.Uint64())
			if rng.Float64() < uniform {
				key = uint32(rng.Intn(universe))
			}
			h, _, _ := p.touch(key)
			if rng.Intn(4) == 0 {
				p.bump(h)
			}
			if i%500 == 499 {
				p.sameCounters()
			}
			if rng.Intn(1500) == 0 {
				p.reset()
			}
		}
		p.sameCounters()
	}
}

// FuzzSummary interprets bytes as operations against both structures: the
// first byte picks k (1–16); each later byte is a Reset when it is 0xff, a
// Bump through the remembered handle when its top two bits are 10 and the
// key in its low six is still tracked, and a Touch of that key otherwise.
func FuzzSummary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 2, 1, 0})
	// k = 4: fill, tie every counter at 2, then replace through the ties.
	f.Add([]byte{3, 0, 1, 2, 3, 0x80, 0x81, 0x82, 0x83, 4, 5, 6, 7, 0x84, 8, 0xff, 9, 0, 1})
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{64, 512, 4096} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		p := newPair(t, 1+int(ops[0]%16))
		handles := map[uint32]handle{}
		for _, op := range ops[1:] {
			key := uint32(op & 0x3f)
			h, tracked := handles[key]
			switch {
			case op == 0xff:
				p.reset()
				clear(handles)
			case op>>6 == 2 && tracked:
				p.bump(h)
			default:
				h, old, replaced := p.touch(key)
				if replaced {
					delete(handles, old) // its handle now names key
				}
				handles[key] = h
			}
		}
		p.sameCounters()
	})
}
