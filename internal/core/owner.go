package core

import (
	"runtime"
	"sync"

	"repro/internal/trace"
)

// This file is the shard engine. A shard's cache is only ever touched by
// the goroutine holding the shard's try-lock (shardedShard.busy); there are
// no shard goroutines. A goroutine takes the try-lock one of two ways:
//
//   - Producer.post (the batch path) pushes a frame onto the shard's
//     pending list, then try-locks once. The winner is the shard's combiner
//     (flat combining: Hendler, Incze, Shavit, Tzafrir, SPAA 2010); a loser
//     moves on to its next shard and collects its verdicts at its batch's
//     WaitGroup, since whoever holds the shard runs the frame for it.
//   - shardedShard.hold (Sharded.Access) spins on the try-lock, yielding
//     between attempts, then runs its request itself.
//
// Either way the holder gives the shard back through release: run every
// pending frame, clear the try-lock, re-check the list. The cache code runs
// with no per-request lock or atomics; synchronization is paid once per
// frame (a sub-batch routed to one shard), or once per request on the
// per-request path.
//
// No frame is lost. A producer pushes, then try-locks; a holder clears the
// try-lock, then re-checks; all four are sequentially consistent atomics. So
// if a producer's try-lock fails, the shard was held after its push, and the
// holder's release — and with it the holder's re-check — comes later still
// and sees the frame (unless another holder already took it); if the
// try-lock succeeds, the producer drains the frame itself.
//
// Frame lifetime. A frame belongs to its producer except between push and
// the holder's wg.Done for it; Done hands it back, and the producer may
// push it again (rewriting next) at once. A holder therefore reads a
// frame's next link before it runs the frame, never after.

// DefaultAccessBatch is the request count per AccessBatch call used by
// drivers that do not choose their own batching. It matches the wire
// protocol's default frame size, so the network and in-process batch paths
// exercise identical sub-batch shapes.
const DefaultAccessBatch = 512

// warmGroup is how many requests processFrame warms ahead of running them:
// enough independent record loads in flight to cover a cache miss each,
// few enough that the lines warmed for the group's last request (three of
// them: the record and both its list neighbours) are still in L1 when its
// Access runs. Chosen by measurement
// (8, 16 and 32 on serve_inproc and core.batch_ns_per_req; see CHANGES.md).
const warmGroup = 16

// frame is one sub-batch of requests routed to a single shard, plus the
// scatter information to write results back into the producer's batch.
// Frames are owned by their producer and reused batch after batch — the
// steady-state request path allocates nothing. While posted, a frame sits
// on its shard's pending list through next and belongs to the shard's
// holder until that calls wg.Done (see "Frame lifetime" above).
type frame struct {
	reqs []trace.Request // requests for this shard, in producer order
	idx  []int32         // position of each request in the producer's batch
	hits []bool          // producer's whole-batch results (scatter target)
	wg   *sync.WaitGroup // batch completion; Done once per frame
	next *frame          // pending-list link, written by post before the push
}

// hold takes shard sh for a caller with one thing to run: it spins on the
// try-lock, yielding the processor between attempts so that a holder the
// scheduler preempted gets to finish. The caller gives the shard back with
// release.
func (sh *shardedShard) hold() {
	for !sh.busy.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
}

// release gives shard sh back: it runs the frames posted while sh was held,
// clears the try-lock and re-checks the list, holding sh again if a frame
// arrived in between (see "No frame is lost" above). It reports whether f
// was among the frames it ran.
func (s *Sharded) release(sh *shardedShard, f *frame) (ran bool) {
	for {
		if sh.pending.Load() != nil {
			for g := sh.pending.Swap(nil); g != nil; {
				next := g.next // before processFrame: its wg.Done gives g back
				ran = ran || g == f
				s.processFrame(sh, g)
				g = next
			}
		}
		sh.busy.Store(false)
		if sh.pending.Load() == nil || !sh.busy.CompareAndSwap(false, true) {
			return ran
		}
	}
}

// settle mirrors the cache's state into shard sh's snapshot counters after
// its holder ran reads+writes requests, readHits of them hits. Reads are
// added before read hits, the order Stats relies on; a zero is not added at
// all, since an atomic add costs the same whatever it adds and a single
// request has one or two of them.
func (s *Sharded) settle(sh *shardedShard, reads, readHits, writes uint64) {
	c := sh.c
	sh.len.Store(int64(c.Len()))
	sh.outq.Store(int64(c.OutqueueLen()))
	sh.evictions.Store(c.Evictions())
	if reads != 0 {
		sh.reads.Add(reads)
	}
	if readHits != 0 {
		sh.readHits.Add(readHits)
	}
	if writes != 0 {
		sh.writes.Add(writes)
	}
}

// processFrame runs one frame against the shard's cache: no lock, no
// per-request atomics — the snapshot counters are settled once at the end.
// The caller holds the shard.
//
// Requests run in groups of warmGroup: Cache.warm first pulls the group's
// records and list neighbours toward L1 with independent loads, then the
// ordinary serial Access runs per request and probes for itself, so
// whatever an Access does to the table in between cannot change a verdict
// — only how long it takes to reach it.
func (s *Sharded) processFrame(sh *shardedShard, f *frame) {
	var reads, readHits uint64
	c := sh.c
	reqs, idx, hits := f.reqs, f.idx, f.hits
	// Lease the frame's request numbers up front, so the tap knows where a
	// window boundary falls inside the frame and touches shared state only
	// there and at the frame's end.
	sh.tap.Begin(len(reqs))
	for lo := 0; lo < len(reqs); lo += warmGroup {
		hi := min(lo+warmGroup, len(reqs))
		c.warm(reqs[lo:hi])
		for j := lo; j < hi; j++ {
			hit := c.Access(reqs[j])
			hits[idx[j]] = hit
			// Counted by addition, not behind a branch on the verdict — with
			// hits near one in two that branch is a coin toss. Access reports
			// a hit only for a read, so the hits are the read hits.
			reads += b2u(reqs[j].Op == trace.Read)
			readHits += b2u(hit)
		}
	}
	s.settle(sh, reads, readHits, uint64(len(reqs))-reads)
	f.wg.Done()
}

// b2u is 1 for true and 0 for false; the compiler emits no jump for it.
func b2u(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

// Producer is one client's handle onto a Sharded front: it routes request
// batches to the shards and gathers the per-request hit results. Handles
// are not safe for concurrent use — give each goroutine its own — but any
// number of handles may drive the same front concurrently.
//
// The handle carries one reusable frame per shard, and its goroutine runs
// the frames it posts (and, when producers collide on a shard, frames of
// theirs — or they run its).
type Producer struct {
	s      *Sharded
	frames []*frame
	wg     sync.WaitGroup

	// posted counts the frames this handle has posted, foreign those of them
	// that another goroutine ran. Plain words of the handle's own
	// goroutine: counting combining costs no shared write.
	posted, foreign uint64
}

// NewProducer returns a producer handle for this front. Producers are
// cheap enough to create per connection; Close is a no-op but keeps call
// sites honest about lifetime.
func (s *Sharded) NewProducer() *Producer {
	p := &Producer{s: s, frames: make([]*frame, len(s.shards))}
	for i := range p.frames {
		p.frames[i] = &frame{wg: &p.wg}
	}
	return p
}

// Close releases the handle. The front itself is closed with Sharded.Close.
func (p *Producer) Close() {}

// post hands frame f to shard sh per the combining protocol: push, then
// combine if the shard is free. On return f has either run or sits on the
// list of a holder that will run it; p.wg says which.
func (p *Producer) post(sh int, f *frame) {
	shard := &p.s.shards[sh]
	for {
		old := shard.pending.Load()
		f.next = old
		if shard.pending.CompareAndSwap(old, f) {
			break
		}
	}
	// ran: f itself was among the frames run on this goroutine.
	ran := shard.pending.Load() != nil && shard.busy.CompareAndSwap(false, true) && p.s.release(shard, f)
	p.posted++
	p.foreign += b2u(!ran)
}

// Frames returns how many frames the handle has posted so far and how many
// of those were run by another goroutine — one that held the shard when the
// frame was posted. Like the handle it is not safe for concurrent use.
func (p *Producer) Frames() (posted, foreign uint64) { return p.posted, p.foreign }

// run posts every non-empty frame with hits as its scatter target and
// waits until all of them have run, here or on another goroutine.
func (p *Producer) run(hits []bool) {
	for sh, f := range p.frames {
		if len(f.reqs) > 0 {
			f.hits = hits
			p.wg.Add(1)
			p.post(sh, f)
		}
	}
	p.wg.Wait()
}

// AccessBatch processes one batch of requests against the front and writes
// each request's hit/miss into hits (which must be at least len(reqs)
// long). Requests keep their relative order per shard, and a page's whole
// history lives on one shard. A batch runs shard by shard, so where a
// window boundary falls in it would decide which shards' requests see the
// new priority table; AccessBatch therefore cuts the batch at the next
// multiple of W in the shared learner's request numbering
// (clicstats.Global.UntilRotation), and the rotation falls on the last
// request of a piece, after every request before it in the stream. A
// single producer's results and the front's Stats are then bit-identical
// to a serial replay of its requests through Access, in stream order, at
// any batch size. Under concurrent producers the cut is best effort: it
// moves frame boundaries and nothing else.
func (p *Producer) AccessBatch(reqs []trace.Request, hits []bool) {
	if len(hits) < len(reqs) {
		panic("core: AccessBatch hits slice shorter than reqs")
	}
	for len(reqs) > 0 {
		n := min(len(reqs), p.s.global.UntilRotation())
		p.accessBatch(reqs[:n], hits[:n])
		reqs, hits = reqs[n:], hits[n:]
	}
}

// accessBatch runs a piece of a batch that no window boundary cuts.
func (p *Producer) accessBatch(reqs []trace.Request, hits []bool) {
	for i := range reqs {
		f := p.frames[p.s.ShardFor(reqs[i].Page)]
		f.reqs = append(f.reqs, reqs[i])
		f.idx = append(f.idx, int32(i))
	}
	p.run(hits)
	p.reset()
}

// reset empties the per-shard frames after a routed batch has run.
func (p *Producer) reset() {
	for _, f := range p.frames {
		f.reqs, f.idx, f.hits = f.reqs[:0], f.idx[:0], nil
	}
}

// Close is a no-op — a front owns no goroutine, so there is nothing to
// stop — and stays so that call sites keep stating the front's lifetime.
// Snapshots read the same before and after.
func (s *Sharded) Close() {}
