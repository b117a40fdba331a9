package main

// Every call the benchmark makes into the repository lives in this file,
// so the API surface the benchmark depends on can be read in one place
// (bench/README.md lists it). Each layer is used from outside, through
// the entry points ROADMAP keeps: core.New/Access,
// NewSharded/NewProducer/AccessBatch, engine.ServeSource,
// netclient.ReplaySource and Conn.Pipeline, cluster.ReplaySource and
// Router.Pipeline, and the sequence-tagged wire frames.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clicstats"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hint"
	"repro/internal/metrics"
	"repro/internal/netclient"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/spacesaving"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

const (
	// clients is the number of closed-loop client streams in every
	// workload: a DBMS buffer manager waits for each page, so the honest
	// model is callers that wait, one per core of the 2-CPU host.
	clients = 2
	// batchSize is the request count of one in-process batch and of one
	// full wire frame (core.DefaultAccessBatch, wire.DefaultBatch).
	batchSize = core.DefaultAccessBatch
	// shards is the shard count of every single-node concurrent front.
	shards = 8
	// serialPages and fitsPages are the two cache sizes: one a tenth of
	// the distinct pages, so misses, evictions and the outqueue dominate,
	// and one above the distinct-page count, so only the hit path runs.
	serialPages = 18000
	fitsPages   = 200000
	// oraclePrefix is the trace prefix the paper-ordering check replays.
	oraclePrefix = 500000
)

// cacheConfig is the CLIC configuration every workload uses unless it
// says otherwise. Concurrent fronts run the owner engine: the mutex
// engine's hit ratio depends on goroutine scheduling and cannot repeat.
func cacheConfig(pages int) core.Config {
	return core.Config{TopK: 100, Window: 50000, Capacity: sim.ClicCapacity(pages), Engine: core.EngineOwner}
}

// inputs is everything set-up derives from the seed. The program under
// test only ever receives these generated requests.
type inputs struct {
	spec    workload.Spec
	tr      *trace.Trace
	streams [][]trace.Request
	reads   []uint64 // read requests per client stream
	keys    []string // hint vocabulary, in announcement order
	pages   []uint64 // page numbers in request order, for the calibration kernel
}

// generate builds the request trace for a seed: TPC-C against a DB2-style
// client, two client streams, a third of the requests writes.
func generate(seed int64, reqs int) (*inputs, error) {
	spec, err := workload.ParseSpec(fmt.Sprintf("DB2_C60*%d:%d@%d", clients, reqs, seed))
	if err != nil {
		return nil, err
	}
	tr, err := spec.Trace()
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", spec, err)
	}
	in := &inputs{spec: spec, tr: tr, streams: tr.SplitClients(), keys: tr.Dict.Keys()}
	in.reads = countReads(tr.Reqs, len(tr.Clients))
	in.pages = make([]uint64, len(tr.Reqs))
	for i, r := range tr.Reqs {
		in.pages[i] = r.Page
	}
	return in, nil
}

// countReads returns the read requests per client in reqs.
func countReads(reqs []trace.Request, nclients int) []uint64 {
	reads := make([]uint64, nclients)
	for _, r := range reqs {
		if r.Op == trace.Read {
			reads[r.Client]++
		}
	}
	return reads
}

// slice returns the sub-trace [lo, hi) as its own replayable trace.
func (in *inputs) slice(lo, hi int) *trace.Trace {
	t := *in.tr
	t.Reqs = in.tr.Reqs[lo:hi]
	return &t
}

// passOut is what one pass over a workload produced, before timing is
// attached: the verdicts received and, where the harness drove the layer
// calls itself, the per-batch latencies and the spans.
type passOut struct {
	reqs    int     // requests submitted
	reads   uint64  // read verdicts received
	hits    uint64  // read hits among them
	failed  uint64  // requests that got no verdict (or whose stream erred)
	latency []int64 // ns per batch call, harness-timed passes only
	recs    []*recorder
	passNs  int64
	client  clientTotals // network driver bookkeeping, traced passes only
}

// clientTotals sums what the harness-driven network clients observed.
type clientTotals struct {
	batches    int
	submitNs   int64 // inside Submit, excluding waits for older results
	waitNs     int64 // inside Submit or Drain, waiting for results
	wallNs     int64 // summed client wall time
	connectNs  int64 // Dial + Hello
	connects   int
	finalBatch int // batch size the adaptive sizer ended on
}

func (a *clientTotals) add(b clientTotals) {
	a.batches += b.batches
	a.submitNs += b.submitNs
	a.waitNs += b.waitNs
	a.wallNs += b.wallNs
	a.connectNs += b.connectNs
	a.connects += b.connects
	a.finalBatch = max(a.finalBatch, b.finalBatch)
}

// checkVerdicts compares a pass's verdict counts against the trace's own and
// returns the requests that went unanswered. Every driver reports
// per-client read counts; they must equal the reads actually submitted.
func checkVerdicts(res sim.Result, want []uint64, reqs int) uint64 {
	failed := absDiff(res.Requests, uint64(reqs))
	for c, w := range want {
		var got uint64
		if c < len(res.PerClient) {
			got = res.PerClient[c].Reads
		}
		failed += absDiff(got, w)
	}
	return failed
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// cacheCounters is a snapshot of a workload's cache, read through the
// public accessors of whichever front the workload runs.
type cacheCounters struct {
	evictions uint64
	windows   int
	outq      int
	perShard  []uint64 // requests per shard, across all nodes
	perNode   []uint64 // requests per node
}

func shardedCounters(fronts ...*core.Sharded) cacheCounters {
	var cc cacheCounters
	for _, s := range fronts {
		st := s.Stats()
		cc.evictions += st.Evictions
		cc.windows += st.Windows
		cc.outq += st.OutqueueLen
		cc.perNode = append(cc.perNode, st.Requests)
		for i := 0; i < s.Shards(); i++ {
			ss := s.ShardStats(i)
			cc.perShard = append(cc.perShard, ss.Reads+ss.Writes)
		}
	}
	return cc
}

// runner is one workload built and warm: pass runs it through the product
// entry point, driven runs it with the harness making the layer calls
// itself, optionally recording spans.
type runner interface {
	// warm runs one untimed pass so caches fill and lazy set-up finishes.
	warm() error
	// pass runs round r's timed pass. timed brackets exactly the region
	// whose wall time, CPU and allocations count.
	pass(r int, timed func(func() error) error) (passOut, error)
	// driven runs round r's pass with the harness's own per-client loops
	// around the layer's public batch calls, recording spans.
	driven(r int, timed func(func() error) error) (passOut, error)
	counters() cacheCounters
	servers() []*server.Server
	close() error
}

// workloadDef names a workload, says why it exists, and builds it.
type workloadDef struct {
	name  string
	why   string
	build func(in *inputs) (runner, error)
}

// workloadDefs is the fixed workload table; names are cited by later issues.
var workloadDefs = []workloadDef{
	{"sim_serial", "the paper's own use: one goroutine replays the trace into a cache a tenth of the page set, so misses, evictions and the outqueue dominate",
		func(in *inputs) (runner, error) { return newSimRunner(in, serialPages), nil }},
	{"sim_fits", "same loop with the cache above the distinct-page count: only the hit path runs, so a change that buys cheap evictions with dear hits shows",
		func(in *inputs) (runner, error) { return newSimRunner(in, fitsPages), nil }},
	{"serve_inproc", "engine.ServeSource over the 8-shard owner front, 2 clients: adds routing, SPSC hand-off, owner goroutines and dispatch; no codec, no sockets",
		func(in *inputs) (runner, error) { return newInprocRunner(in), nil }},
	{"serve_loopback", "the product path at throughput: wire codec, server reader/writer split, pipelined netclient (depth 8, frames up to 512) over host loopback TCP",
		func(in *inputs) (runner, error) { return newNetRunner(in, 0, 0) }},
	{"serve_lockstep", "same layers the other way: one request per frame, one round trip each, what a synchronous block read sees; per-frame cost dominates",
		func(in *inputs) (runner, error) { return newNetRunner(in, 1, 1) }},
	{"cluster_routed", "3 nodes x 4 shards at the same total capacity through the real Router with merged learning: ring placement, scatter/gather, summary exchange",
		func(in *inputs) (runner, error) { return newClusterRunner(in) }},
}

// ---- sim_serial / sim_fits --------------------------------------------

// simRunner replays the whole trace into one core.Cache from one
// goroutine. The timed loop is sim.Run's loop with a clock read per
// 512-request chunk, so a chunk's service time is measured in the same
// pass that gives the throughput; the warm-up pass uses sim.Run itself.
type simRunner struct {
	in *inputs
	c  *core.Cache
}

func newSimRunner(in *inputs, pages int) *simRunner {
	return &simRunner{in: in, c: core.New(cacheConfig(pages))}
}

func (w *simRunner) warm() error {
	res := sim.Run(w.c, w.in.tr)
	if f := checkVerdicts(res, w.in.reads, len(w.in.tr.Reqs)); f != 0 {
		return fmt.Errorf("warm-up: %d requests unanswered", f)
	}
	return nil
}

func (w *simRunner) pass(_ int, timed func(func() error) error) (passOut, error) {
	return w.replay(false, timed)
}

func (w *simRunner) driven(_ int, timed func(func() error) error) (passOut, error) {
	return w.replay(true, timed)
}

func (w *simRunner) replay(traced bool, timed func(func() error) error) (passOut, error) {
	reqs := w.in.tr.Reqs
	out := passOut{reqs: len(reqs), latency: make([]int64, 0, len(reqs)/batchSize+1)}
	var rec *recorder
	if traced {
		rec = &recorder{spans: make([]rawSpan, 0, len(reqs)/batchSize+1)}
		out.recs = []*recorder{rec}
	}
	err := timed(func() error {
		epoch := time.Now()
		prev := int64(0)
		for off, seq := 0, 0; off < len(reqs); off, seq = off+batchSize, seq+1 {
			for _, rq := range reqs[off:min(off+batchSize, len(reqs))] {
				hit := w.c.Access(rq)
				if rq.Op == trace.Read {
					out.reads++
					if hit {
						out.hits++
					}
				}
			}
			now := int64(time.Since(epoch))
			out.latency = append(out.latency, now-prev)
			rec.add(spCoreAccess, prev, now, -1, seq)
			prev = now
		}
		out.passNs = prev
		return nil
	})
	out.failed = readShortfall(out, w.in.reads)
	return out, err
}

func (w *simRunner) counters() cacheCounters {
	return cacheCounters{evictions: w.c.Evictions(), windows: w.c.Windows(), outq: w.c.OutqueueLen()}
}

func (w *simRunner) servers() []*server.Server { return nil }
func (w *simRunner) close() error              { return nil }

// ---- serve_inproc -----------------------------------------------------

// latencyBatches is how many batches per client stream the serve_inproc
// latency pass times: 2 streams × 500 gives 1000 samples, ten of them
// beyond the 99th percentile.
const latencyBatches = 500

// inprocRunner serves the trace through engine.ServeSource over an
// 8-shard owner front. ServeSource offers no per-batch timing, so each
// round also runs a short latency pass — the harness's own two client
// loops around Producer.AccessBatch — outside the timed region.
type inprocRunner struct {
	in    *inputs
	front *core.Sharded
}

func newInprocRunner(in *inputs) *inprocRunner {
	return &inprocRunner{in: in, front: core.NewSharded(cacheConfig(serialPages), shards)}
}

func (w *inprocRunner) warm() error {
	_, err := w.serve()
	return err
}

func (w *inprocRunner) serve() (passOut, error) {
	out := passOut{reqs: len(w.in.tr.Reqs)}
	res, err := engine.ServeSource(w.front, w.in.tr.Source(), batchSize)
	if err != nil {
		out.failed = uint64(out.reqs)
		return out, err
	}
	out.reads, out.hits = res.Reads, res.ReadHits
	out.failed = checkVerdicts(res, w.in.reads, out.reqs)
	return out, nil
}

func (w *inprocRunner) pass(r int, timed func(func() error) error) (passOut, error) {
	var out passOut
	err := timed(func() (err error) {
		out, err = w.serve()
		return err
	})
	if err != nil {
		return out, err
	}
	// Latency pass: a window of each stream, moved every round so the
	// samples do not all come from the same requests.
	window := make([][]trace.Request, len(w.in.streams))
	for c, s := range w.in.streams {
		n := min(latencyBatches*batchSize, len(s))
		lo := 0
		if len(s) > n {
			lo = (r * n) % (len(s) - n + 1)
		}
		window[c] = s[lo : lo+n]
	}
	lat, err := w.drive(window, false)
	out.latency = lat.latency
	out.failed += lat.failed
	return out, err
}

func (w *inprocRunner) driven(_ int, timed func(func() error) error) (passOut, error) {
	var out passOut
	err := timed(func() (err error) {
		out, err = w.drive(w.in.streams, true)
		return err
	})
	return out, err
}

// drive runs one goroutine per client stream, each with its own Producer,
// timing every AccessBatch call.
func (w *inprocRunner) drive(streams [][]trace.Request, traced bool) (passOut, error) {
	type result struct {
		reads, hits uint64
		latency     []int64
		rec         *recorder
	}
	results := make([]result, len(streams))
	epoch := time.Now()
	var wg sync.WaitGroup
	for c, reqs := range streams {
		wg.Add(1)
		go func(c int, reqs []trace.Request) {
			defer wg.Done()
			res := &results[c]
			res.latency = make([]int64, 0, len(reqs)/batchSize+1)
			if traced {
				res.rec = &recorder{client: c, spans: make([]rawSpan, 0, 2*(len(reqs)/batchSize+1))}
			}
			prod := w.front.NewProducer()
			defer prod.Close()
			hits := make([]bool, batchSize)
			for off, seq := 0, 0; off < len(reqs); off, seq = off+batchSize, seq+1 {
				batch := reqs[off:min(off+batchSize, len(reqs))]
				t0 := int64(time.Since(epoch))
				prod.AccessBatch(batch, hits)
				t1 := int64(time.Since(epoch))
				for i := range batch {
					if batch[i].Op == trace.Read {
						res.reads++
						if hits[i] {
							res.hits++
						}
					}
				}
				res.latency = append(res.latency, t1-t0)
				if res.rec != nil {
					eb := res.rec.add(spEngineBatch, t0, int64(time.Since(epoch)), -1, seq)
					res.rec.add(spCoreAccessBatch, t0, t1, eb, seq)
				}
			}
		}(c, reqs)
	}
	wg.Wait()
	var out passOut
	out.passNs = int64(time.Since(epoch))
	for c, res := range results {
		out.reqs += len(streams[c])
		out.reads += res.reads
		out.hits += res.hits
		out.latency = append(out.latency, res.latency...)
		out.recs = append(out.recs, res.rec)
		var want uint64
		for _, r := range streams[c] {
			if r.Op == trace.Read {
				want++
			}
		}
		out.failed += absDiff(res.reads, want)
	}
	return out, nil
}

func (w *inprocRunner) counters() cacheCounters   { return shardedCounters(w.front) }
func (w *inprocRunner) servers() []*server.Server { return nil }
func (w *inprocRunner) close() error              { w.front.Close(); return nil }

// ---- serve_loopback / serve_lockstep ----------------------------------

// lockstepReqs is the trace slice one serve_lockstep round replays. At
// one request per round trip a whole-trace pass would take ten seconds;
// the slice moves through the trace round by round instead.
const lockstepReqs = 25000

// netRunner replays the trace against an in-process server over host
// loopback TCP (not a link: no propagation delay, no loss). depth and
// batch are the replay options; zero selects the defaults (depth 8,
// adaptive batch growing 64 → 512).
type netRunner struct {
	in    *inputs
	srv   *server.Server
	addr  string
	depth int
	batch int
}

func newNetRunner(in *inputs, depth, batch int) (*netRunner, error) {
	srv := server.New(server.Config{Cache: cacheConfig(serialPages), Shards: shards})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	return &netRunner{in: in, srv: srv, addr: srv.Addr().String(), depth: depth, batch: batch}, nil
}

func (w *netRunner) lockstep() bool { return w.depth == 1 }

// warm fills the cache with one pipelined replay of the whole trace, also
// for the lock-step workload: what is being warmed is the server's cache,
// and one request per round trip would take ten seconds to do it.
func (w *netRunner) warm() error {
	res, err := netclient.ReplaySource(w.addr, w.in.tr.Source(), netclient.ReplayOptions{})
	if err != nil {
		return err
	}
	if f := checkVerdicts(res, w.in.reads, len(w.in.tr.Reqs)); f != 0 {
		return fmt.Errorf("warm-up: %d requests unanswered", f)
	}
	return nil
}

// roundTrace returns the requests round r replays: everything, or the
// round's slice for lock-step.
func (w *netRunner) roundTrace(r int) *trace.Trace {
	if !w.lockstep() {
		return w.in.tr
	}
	total := len(w.in.tr.Reqs)
	n := min(lockstepReqs, max(total/4, 1))
	lo := (r * n) % (total - n + 1)
	return w.in.slice(lo, lo+n)
}

func (w *netRunner) pass(r int, timed func(func() error) error) (passOut, error) {
	t := w.roundTrace(r)
	want := countReads(t.Reqs, len(t.Clients))
	out := passOut{reqs: len(t.Reqs)}
	err := timed(func() error {
		res, err := netclient.ReplaySource(w.addr, t.Source(), netclient.ReplayOptions{Depth: w.depth, BatchSize: w.batch})
		if err != nil {
			out.failed = uint64(out.reqs)
			return err
		}
		out.reads, out.hits = res.Reads, res.ReadHits
		out.failed = checkVerdicts(res, want, out.reqs)
		return nil
	})
	return out, err
}

func (w *netRunner) driven(r int, timed func(func() error) error) (passOut, error) {
	t := w.roundTrace(r)
	streams := t.SplitClients()
	want := countReads(t.Reqs, len(t.Clients))
	depth := w.depth
	if depth == 0 {
		depth = netclient.DefaultDepth
	}
	// Lock-step makes a span per request; keep one batch in 16.
	sample := 1
	if w.lockstep() {
		sample = 16
	}
	var out passOut
	err := timed(func() error {
		var err error
		out, err = driveClients(streams, func(c int, reqs []trace.Request, rec *recorder, epoch time.Time) (clientResult, error) {
			return drivePipeline(w.addr, t.Clients[c], w.in.keys, reqs, depth, w.batch, rec, sample, epoch)
		})
		return err
	})
	out.failed += readShortfall(out, want)
	return out, err
}

func (w *netRunner) counters() cacheCounters   { return shardedCounters(w.srv.Cache()) }
func (w *netRunner) servers() []*server.Server { return []*server.Server{w.srv} }
func (w *netRunner) close() error              { return w.srv.Close() }

// clientResult is one harness-driven network client's outcome.
type clientResult struct {
	reads, hits uint64
	perClient   clientTotals
}

// driveClients runs one goroutine per client stream, each with its own
// span recorder, and folds the results.
func driveClients(streams [][]trace.Request, run func(c int, reqs []trace.Request, rec *recorder, epoch time.Time) (clientResult, error)) (passOut, error) {
	results := make([]clientResult, len(streams))
	errs := make([]error, len(streams))
	recs := make([]*recorder, len(streams))
	epoch := time.Now()
	var wg sync.WaitGroup
	for c, reqs := range streams {
		recs[c] = &recorder{client: c, spans: make([]rawSpan, 0, 1024)}
		wg.Add(1)
		go func(c int, reqs []trace.Request) {
			defer wg.Done()
			results[c], errs[c] = run(c, reqs, recs[c], epoch)
		}(c, reqs)
	}
	wg.Wait()
	out := passOut{passNs: int64(time.Since(epoch)), recs: recs}
	var first error
	for c, res := range results {
		out.reqs += len(streams[c])
		out.reads += res.reads
		out.hits += res.hits
		out.client.add(res.perClient)
		if errs[c] != nil {
			out.failed += uint64(len(streams[c]))
			if first == nil {
				first = fmt.Errorf("client %d: %w", c, errs[c])
			}
		}
	}
	return out, first
}

// readShortfall is the number of read verdicts a driven pass is missing.
func readShortfall(out passOut, want []uint64) uint64 {
	var total uint64
	for _, n := range want {
		total += n
	}
	return absDiff(out.reads, total)
}

// drivePipeline is the harness's own netclient loop: Dial, Hello, then
// Submit batches through Conn.Pipeline under the adaptive sizer, exactly
// the calls netclient.ReplaySource makes, with a span around each.
//
// A Submit that finds the window full first completes the oldest batch,
// which runs the result handler inside Submit. The time from Submit's
// entry to that handler's return is waiting for results; the remainder
// is encoding and writing the frame.
func drivePipeline(addr, name string, keys []string, reqs []trace.Request, depth, batch int, rec *recorder, sample int, epoch time.Time) (clientResult, error) {
	var res clientResult
	st := &res.perClient
	start := time.Now()
	conn, err := netclient.Dial(addr)
	if err != nil {
		return res, err
	}
	defer conn.Close()
	if _, err := conn.Hello(name, keys); err != nil {
		return res, err
	}
	st.connectNs, st.connects = int64(time.Since(start)), 1
	rec.add(spConnect, int64(start.Sub(epoch)), int64(time.Since(epoch)), -1, 0)

	sizer := netclient.NewBatchSizer(batch)
	var (
		done       int     // batches completed; results arrive in order
		handlerEnd int64   // when the last handler call returned
		roundtrips []int32 // open round-trip span per submitted batch
	)
	pl := conn.Pipeline(depth, func(_ any, isRead []bool, r wire.Results, rttNs int64) error {
		for i, rd := range isRead {
			if rd {
				res.reads++
				if r.Hits[i] {
					res.hits++
				}
			}
		}
		sizer.Observe(rttNs, len(isRead))
		handlerEnd = int64(time.Since(epoch))
		rec.setEnd(roundtrips[done], handlerEnd)
		done++
		return nil
	})
	for seq := 0; len(reqs) > 0; seq++ {
		n := min(sizer.Current(), len(reqs))
		before := done
		s0 := int64(time.Since(epoch))
		if err := pl.Submit(reqs[:n], nil); err != nil {
			return res, err
		}
		s1 := int64(time.Since(epoch))
		wait := int64(0)
		if done != before {
			wait = handlerEnd - s0
		}
		st.waitNs += wait
		st.submitNs += s1 - s0 - wait
		st.batches++
		rt := int32(-1)
		if seq%sample == 0 {
			rt = rec.add(spRoundtrip, s0, s0, -1, seq)
			sb := rec.add(spSubmit, s0, s1, rt, seq)
			if wait > 0 {
				rec.add(spWait, s0, s0+wait, sb, seq)
			}
		}
		roundtrips = append(roundtrips, rt)
		reqs = reqs[n:]
	}
	d0 := int64(time.Since(epoch))
	if err := pl.Drain(); err != nil {
		return res, err
	}
	d1 := int64(time.Since(epoch))
	st.waitNs += d1 - d0
	rec.add(spDrain, d0, d1, -1, st.batches)
	st.wallNs = int64(time.Since(start))
	st.finalBatch = sizer.Current()
	return res, nil
}

// ---- cluster_routed ---------------------------------------------------

const (
	clusterNodes  = 3
	clusterShards = 4
)

// clusterRunner replays the trace through the consistent-hash Router
// against a 3-node in-process cluster holding the same total capacity and
// window as the single-node workloads, with merged learning: summaries
// are delivered to peers as each node's window closes.
type clusterRunner struct {
	in *inputs
	h  *cluster.Harness
}

func newClusterRunner(in *inputs) (*clusterRunner, error) {
	h, err := cluster.StartHarness(cluster.HarnessConfig{
		Nodes:   clusterNodes,
		Shards:  clusterShards,
		Cache:   cacheConfig(serialPages),
		Merging: true,
	})
	if err != nil {
		return nil, err
	}
	h.Coordinator().SetImmediate(true)
	return &clusterRunner{in: in, h: h}, nil
}

func (w *clusterRunner) replay() (passOut, error) {
	out := passOut{reqs: len(w.in.tr.Reqs)}
	res, err := cluster.ReplaySource(w.h.Nodes(), w.in.tr.Source(), cluster.ReplayOptions{})
	if err != nil {
		out.failed = uint64(out.reqs)
		return out, err
	}
	out.reads, out.hits = res.Reads, res.ReadHits
	out.failed = checkVerdicts(res, w.in.reads, out.reqs)
	return out, nil
}

func (w *clusterRunner) warm() error {
	out, err := w.replay()
	if err == nil && out.failed != 0 {
		err = fmt.Errorf("warm-up: %d requests unanswered", out.failed)
	}
	return err
}

func (w *clusterRunner) pass(_ int, timed func(func() error) error) (passOut, error) {
	var out passOut
	err := timed(func() (err error) {
		out, err = w.replay()
		return err
	})
	return out, err
}

func (w *clusterRunner) driven(_ int, timed func(func() error) error) (passOut, error) {
	var out passOut
	err := timed(func() error {
		var err error
		out, err = driveClients(w.in.streams, func(c int, reqs []trace.Request, rec *recorder, epoch time.Time) (clientResult, error) {
			return driveRouter(w.h.Nodes(), w.in.tr.Clients[c], w.in.keys, reqs, rec, epoch)
		})
		return err
	})
	out.failed += readShortfall(out, w.in.reads)
	return out, err
}

// driveRouter is drivePipeline one layer up: DialRouter, Hello, then
// Submit through Router.Pipeline, the calls cluster.ReplaySource makes.
// Router batches may complete out of submission order, so each carries
// its sequence number as the tag. A router Submit completes node
// sub-batches without telling the caller, so its waits cannot be told
// from its routing and encoding from outside: the Submit span and
// cluster.router_submit_ns_per_req include them. Routing alone is priced
// by the ring kernel.
func driveRouter(nodes []cluster.Node, name string, keys []string, reqs []trace.Request, rec *recorder, epoch time.Time) (clientResult, error) {
	var res clientResult
	st := &res.perClient
	start := time.Now()
	router, err := cluster.DialRouter(nodes, 0)
	if err != nil {
		return res, err
	}
	defer router.Close()
	if err := router.Hello(name, keys); err != nil {
		return res, err
	}
	st.connectNs, st.connects = int64(time.Since(start)), 1
	rec.add(spRouterConnect, int64(start.Sub(epoch)), int64(time.Since(epoch)), -1, 0)

	sizer := netclient.NewBatchSizer(0)
	var roundtrips []int32 // open round-trip span per submitted batch
	pl := router.Pipeline(netclient.DefaultDepth, func(tag any, isRead, hits []bool, _ int, rttNs int64) error {
		for i, rd := range isRead {
			if rd {
				res.reads++
				if hits[i] {
					res.hits++
				}
			}
		}
		sizer.Observe(rttNs, len(isRead))
		rec.setEnd(roundtrips[tag.(int)], int64(time.Since(epoch)))
		return nil
	})
	for seq := 0; len(reqs) > 0; seq++ {
		n := min(sizer.Current(), len(reqs))
		s0 := int64(time.Since(epoch))
		roundtrips = append(roundtrips, rec.add(spRouterRoundtrip, s0, s0, -1, seq))
		if err := pl.Submit(reqs[:n], seq); err != nil {
			return res, err
		}
		s1 := int64(time.Since(epoch))
		st.submitNs += s1 - s0
		st.batches++
		rec.add(spRouterSubmit, s0, s1, roundtrips[seq], seq)
		reqs = reqs[n:]
	}
	d0 := int64(time.Since(epoch))
	if err := pl.Drain(); err != nil {
		return res, err
	}
	rec.add(spDrain, d0, int64(time.Since(epoch)), -1, st.batches)
	st.finalBatch = sizer.Current()
	return res, nil
}

func (w *clusterRunner) counters() cacheCounters {
	fronts := make([]*core.Sharded, clusterNodes)
	for i := range fronts {
		fronts[i] = w.h.Server(i).Cache()
	}
	return shardedCounters(fronts...)
}

func (w *clusterRunner) servers() []*server.Server {
	out := make([]*server.Server, clusterNodes)
	for i := range out {
		out[i] = w.h.Server(i)
	}
	return out
}

func (w *clusterRunner) close() error { return w.h.Close() }

// ---- counters the layers publish ---------------------------------------

// layerSnap is a snapshot of the process-wide layer counters: the
// netclient round-trip histogram and the wire codec's frame accounting.
//
// Client and server share the process, so every frame is written once and
// read once; the written side alone is what crossed the wire.
type layerSnap struct {
	rtt        metrics.HistSnapshot
	wireFrames uint64
	wireBytes  uint64
}

func snapLayers(s *layerSnap) {
	netclient.BatchRTT().Snapshot(&s.rtt)
	s.wireFrames = wire.Metrics.FramesEncoded.Value()
	s.wireBytes = wire.Metrics.BytesEncoded.Value()
}

// sub leaves in s what happened since prev.
func (s *layerSnap) sub(prev *layerSnap) {
	s.rtt.Sub(&prev.rtt)
	s.wireFrames -= prev.wireFrames
	s.wireBytes -= prev.wireBytes
}

// add accumulates b into s.
func (s *layerSnap) add(b *layerSnap) {
	histAdd(&s.rtt, &b.rtt)
	s.wireFrames += b.wireFrames
	s.wireBytes += b.wireBytes
}

// histQuantileUs is the q-quantile of a nanosecond histogram, in µs.
func histQuantileUs(h *metrics.HistSnapshot, q float64) float64 { return h.Quantile(q) / 1e3 }

// histCount is the number of samples in a histogram snapshot, summed from
// the buckets so it agrees with what Quantile walks.
func histCount(h *metrics.HistSnapshot) int {
	n := uint64(0)
	for _, c := range h.Counts {
		n += c
	}
	return int(n)
}

// histAdd accumulates b into a.
func histAdd(a, b *metrics.HistSnapshot) {
	for i := range a.Counts {
		a.Counts[i] += b.Counts[i]
	}
	a.Count += b.Count
	a.Sum += b.Sum
}

// serverSnap is what a workload's servers publish: batch service times
// and the flush and cluster counters of their /metrics registries.
type serverSnap struct {
	service   metrics.HistSnapshot
	flushes   float64
	rounds    float64
	published float64
	absorbed  float64
}

func snapServers(srvs []*server.Server) (serverSnap, error) {
	var s serverSnap
	for _, srv := range srvs {
		var h metrics.HistSnapshot
		srv.BatchServiceTime().Snapshot(&h)
		histAdd(&s.service, &h)
		vals, err := scrape(srv.Registry())
		if err != nil {
			return s, err
		}
		s.flushes += vals["clic_server_flushes_total"]
		s.rounds += vals["clic_cluster_merge_rounds_total"]
		s.published += vals["clic_cluster_summaries_published_total"]
		s.absorbed += vals["clic_cluster_summaries_absorbed_total"]
	}
	return s, nil
}

func (s *serverSnap) sub(prev *serverSnap) {
	s.service.Sub(&prev.service)
	s.flushes -= prev.flushes
	s.rounds -= prev.rounds
	s.published -= prev.published
	s.absorbed -= prev.absorbed
}

// scrape reads a registry the way an operator does, through its
// Prometheus text, and returns the unlabelled series by name.
func scrape(r *metrics.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("scraping registry: %w", err)
	}
	vals := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			vals[name] = v
		}
	}
	return vals, nil
}

// ---- correctness oracles ----------------------------------------------

// checkPaperOrdering replays a prefix of the trace through the paper's
// five policies at the sim_serial cache size and checks the ordering of
// Figure 6, LRU ≤ ARC < TQ < CLIC < OPT. It also replays CLIC twice: the
// simulation is deterministic, so the hit counts must be identical.
func checkPaperOrdering(in *inputs) (string, error) {
	pre := in.tr.Truncate(oraclePrefix)
	cfg := cacheConfig(serialPages)
	names := []string{"LRU", "ARC", "TQ", "CLIC", "OPT"}
	ratio := make([]float64, len(names))
	var clicHits uint64
	for i, name := range names {
		p, err := sim.NewPolicy(name, serialPages, pre, cfg)
		if err != nil {
			return "", err
		}
		res := sim.Run(p, pre)
		ratio[i] = 100 * res.HitRatio()
		if name == "CLIC" {
			clicHits = res.ReadHits
		}
	}
	desc := fmt.Sprintf("LRU %.1f ≤ ARC %.1f < TQ %.1f < CLIC %.1f < OPT %.1f", ratio[0], ratio[1], ratio[2], ratio[3], ratio[4])
	if !(ratio[0] <= ratio[1] && ratio[1] < ratio[2] && ratio[2] < ratio[3] && ratio[3] < ratio[4]) {
		return desc, fmt.Errorf("paper ordering violated on the %d-request prefix: %s", len(pre.Reqs), desc)
	}
	again, err := sim.NewPolicy("CLIC", serialPages, pre, cfg)
	if err != nil {
		return desc, err
	}
	if got := sim.Run(again, pre).ReadHits; got != clicHits {
		return desc, fmt.Errorf("CLIC replay not deterministic: %d then %d read hits", clicHits, got)
	}
	return desc, nil
}

// ---- layer kernels ------------------------------------------------------

// A kernel times one layer's public calls in isolation, over the same
// generated requests, for about budget. Kernel figures do not depend on
// the workload being traced; they price the layer, the workload's own
// counters say how much of it the workload used.
type kernel struct {
	name   string
	shares int // of the kernel time: one per figure that needs whole passes
	run    func(in *inputs, budget time.Duration, out map[string]float64) error
}

var kernels = []kernel{
	{"core", 3, kernelCore},
	{"clicstats", 1, kernelClicstats},
	{"spacesaving", 1, kernelSpaceSaving},
	{"engine", 1, kernelEngine},
	{"wire", 1, kernelWire},
	{"loopback", 1, kernelLoopback},
	{"cluster.ring", 1, kernelRing},
	{"workload", 1, kernelWorkload},
	{"trace", 1, kernelTrace},
	{"metrics", 1, kernelMetrics},
}

// repeatFor calls unit until budget has passed (at least once) and
// returns nanoseconds per operation, each call doing ops operations.
func repeatFor(budget time.Duration, ops int, unit func()) float64 {
	start := time.Now()
	n := 0
	for {
		unit()
		n++
		if time.Since(start) >= budget {
			break
		}
	}
	return float64(time.Since(start)) / float64(n*ops)
}

// kernelCore prices Cache.Access on the miss-heavy and the all-hit
// configuration and Producer.AccessBatch on the owner front; the
// difference between batch and access is the routing and hand-off.
func kernelCore(in *inputs, budget time.Duration, out map[string]float64) error {
	reqs := in.tr.Reqs
	for _, k := range []struct {
		metric string
		pages  int
	}{{"core.access_ns_per_req", serialPages}, {"core.hit_path_ns_per_req", fitsPages}} {
		c := core.New(cacheConfig(k.pages))
		sim.Run(c, in.tr)
		out[k.metric] = repeatFor(budget/3, len(reqs), func() {
			for _, r := range reqs {
				c.Access(r)
			}
		})
	}
	front := core.NewSharded(cacheConfig(serialPages), shards)
	defer front.Close()
	prod := front.NewProducer()
	defer prod.Close()
	hits := make([]bool, batchSize)
	replay := func() {
		for off := 0; off < len(reqs); off += batchSize {
			prod.AccessBatch(reqs[off:min(off+batchSize, len(reqs))], hits)
		}
	}
	replay()
	out["core.batch_ns_per_req"] = repeatFor(budget/3, len(reqs), replay)
	out["core.handoff_ns_per_req"] = out["core.batch_ns_per_req"] - out["core.access_ns_per_req"]
	return nil
}

// kernelClicstats drives the partitioned learner with the trace's hint
// stream, window rotations included.
func kernelClicstats(in *inputs, budget time.Duration, out map[string]float64) error {
	cfg := cacheConfig(serialPages)
	l := clicstats.NewPartitioned(clicstats.Config{Window: cfg.Window, R: 1, TopK: cfg.TopK})
	tracked := 0
	out["clicstats.arrive_ns_per_req"] = repeatFor(budget, len(in.tr.Reqs), func() {
		for i, r := range in.tr.Reqs {
			l.Arrive(r.Hint)
			l.EndRequest()
			if i%1024 == 0 {
				tracked = max(tracked, l.TrackedHintSets())
			}
		}
	})
	out["clicstats.tracked_hint_sets"] = float64(tracked)
	return nil
}

// kernelSpaceSaving updates a top-k summary with the same hint stream,
// reset once per window as the learner does.
func kernelSpaceSaving(in *inputs, budget time.Duration, out map[string]float64) error {
	cfg := cacheConfig(serialPages)
	s := spacesaving.New[hint.ID, struct{}](cfg.TopK)
	out["spacesaving.update_ns_per_op"] = repeatFor(budget, len(in.tr.Reqs), func() {
		for i, r := range in.tr.Reqs {
			s.Touch(r.Hint)
			if (i+1)%cfg.Window == 0 {
				s.Reset()
			}
		}
	})
	return nil
}

// nopPolicy answers every request with a miss and keeps nothing, so
// ServeSource over it costs only the engine's own dispatch.
type nopPolicy struct{}

func (nopPolicy) Name() string              { return "nop" }
func (nopPolicy) Access(trace.Request) bool { return false }
func (nopPolicy) Len() int                  { return 0 }
func (nopPolicy) Capacity() int             { return 0 }

func kernelEngine(in *inputs, budget time.Duration, out map[string]float64) error {
	var err error
	out["engine.dispatch_ns_per_req"] = repeatFor(budget, len(in.tr.Reqs), func() {
		if _, e := engine.ServeSource(nopPolicy{}, in.tr.Source(), batchSize); e != nil {
			err = e
		}
	})
	batches := 0
	for _, s := range in.streams {
		batches += (len(s) + batchSize - 1) / batchSize
	}
	out["engine.batches"] = float64(batches)
	return err
}

// kernelWire encodes and decodes the trace's real batches as the tagged
// frames the pipelined protocol uses.
func kernelWire(in *inputs, budget time.Duration, out map[string]float64) error {
	reqs := in.streams[0]
	var frames [][]byte
	for off := 0; off < len(reqs); off += batchSize {
		frames = append(frames, wire.AppendBatchSeq(nil, uint64(len(frames)), reqs[off:min(off+batchSize, len(reqs))]))
	}
	buf := make([]byte, 0, 1<<14)
	out["wire.encode_batch_ns_per_req"] = repeatFor(budget/4, len(reqs), func() {
		for off, seq := 0, uint64(0); off < len(reqs); off, seq = off+batchSize, seq+1 {
			buf = wire.AppendBatchSeq(buf[:0], seq, reqs[off:min(off+batchSize, len(reqs))])
		}
	})
	var err error
	decoded := 0
	begin := func(int) error { return nil }
	emit := func(int, trace.Request) error { decoded++; return nil }
	out["wire.decode_batch_ns_per_req"] = repeatFor(budget/4, len(reqs), func() {
		for _, f := range frames {
			if _, _, e := wire.DecodeBatchStream(f, begin, emit); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	if decoded == 0 || decoded%len(reqs) != 0 {
		return fmt.Errorf("wire kernel decoded %d requests from frames of %d", decoded, len(reqs))
	}
	res := wire.Results{Hits: make([]bool, batchSize)}
	for i := range res.Hits {
		res.Hits[i] = i%2 == 0
	}
	nframes := len(frames)
	out["wire.encode_results_ns_per_req"] = repeatFor(budget/4, nframes*batchSize, func() {
		for seq := 0; seq < nframes; seq++ {
			buf = wire.AppendResultsSeq(buf[:0], uint64(seq), res)
		}
	})
	payload := wire.AppendResultsSeq(nil, 7, res)
	var dst wire.Results
	out["wire.decode_results_ns_per_req"] = repeatFor(budget/4, nframes*batchSize, func() {
		for seq := 0; seq < nframes; seq++ {
			if _, dst, err = wire.DecodeResultsSeq(payload, dst); err != nil {
				return
			}
		}
	})
	return err
}

// kernelLoopback is the floor under the round-trip metrics: a TCP echo on
// the same loopback interface with no repository code in it, sending
// frames the size of a 1-request and of a 512-request batch. It is not
// expected to move; if it does, the host moved.
func kernelLoopback(in *inputs, budget time.Duration, out map[string]float64) error {
	reqs := in.streams[0]
	small := len(wire.AppendBatchSeq(nil, 1, reqs[:1]))
	large := len(wire.AppendBatchSeq(nil, 1, reqs[:min(batchSize, len(reqs))]))
	for _, k := range []struct {
		metric string
		size   int
	}{{"loopback.echo_small_rtt_us", small}, {"loopback.echo_batch_rtt_us", large}} {
		us, err := echoRTT(k.size, budget/2)
		if err != nil {
			return err
		}
		out[k.metric] = us
	}
	return nil
}

// echoRTT returns the median round trip, in µs, of size-byte messages
// against an echo server on 127.0.0.1.
func echoRTT(size int, budget time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, size)
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				if err == io.EOF {
					err = nil
				}
				served <- err
				return
			}
			if _, err := conn.Write(buf); err != nil {
				served <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	msg := make([]byte, size)
	var rtts []float64
	for start := time.Now(); time.Since(start) < budget || len(rtts) < 100; {
		t0 := time.Now()
		if _, err := conn.Write(msg); err != nil {
			conn.Close()
			return 0, err
		}
		if _, err := io.ReadFull(conn, msg); err != nil {
			conn.Close()
			return 0, err
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	conn.Close()
	if err := <-served; err != nil {
		return 0, fmt.Errorf("echo server: %w", err)
	}
	sort.Float64s(rtts)
	return quantileSorted(rtts, 0.5), nil
}

// kernelRing prices consistent-hash placement alone.
func kernelRing(in *inputs, budget time.Duration, out map[string]float64) error {
	names := make([]string, clusterNodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	ring, err := cluster.NewRing(names, 0)
	if err != nil {
		return err
	}
	owned := 0
	out["cluster.ring_owner_ns_per_req"] = repeatFor(budget, len(in.tr.Reqs), func() {
		for _, r := range in.tr.Reqs {
			owned += ring.Owner(r.Page)
		}
	})
	runtime.KeepAlive(owned)
	return nil
}

// countingSink absorbs generated requests without keeping them.
type countingSink struct {
	dict *hint.Dict
	n    int
}

func (s *countingSink) HintDict() *hint.Dict      { return s.dict }
func (s *countingSink) AppendReq(r trace.Request) { s.n++ }
func (s *countingSink) Len() int                  { return s.n }

// genKernelReqs is the request count the generation kernel produces per
// run: enough to pass the generator's start-up, small enough to repeat.
const genKernelReqs = 100000

// kernelWorkload prices streaming generation, which set-up pays.
func kernelWorkload(in *inputs, budget time.Duration, out map[string]float64) error {
	spec := in.spec
	spec.Preset.Requests = min(genKernelReqs, spec.Preset.Requests)
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	generated := 0
	ns := repeatFor(budget, spec.Preset.Requests, func() {
		sink := &countingSink{dict: hint.NewDict()}
		if e := spec.GenerateTo(sink); e != nil {
			err = e
		}
		generated += sink.n
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	out["workload.gen_reqs_per_s"] = 1e9 / ns
	out["workload.gen_allocs_per_kreq"] = 1000 * float64(after.Mallocs-before.Mallocs) / float64(generated)
	return nil
}

// kernelTrace prices the trace container: v2 encode, v2 scan, and the
// per-client split, all of which set-up or a file-backed replay pays.
func kernelTrace(in *inputs, budget time.Duration, out map[string]float64) error {
	tr := in.tr
	var buf bytes.Buffer
	var err error
	encodeNs := repeatFor(budget/3, 1, func() {
		buf.Reset()
		w := trace.NewWriter(&buf, tr.Name, tr.PageSize, tr.Clients, trace.WriterOptions{})
		for _, k := range in.keys {
			w.HintDict().InternKey(k)
		}
		for _, r := range tr.Reqs {
			w.AppendReq(r)
		}
		if e := w.Close(); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	encoded := buf.Bytes()
	out["trace.encode_mb_per_s"] = float64(len(encoded)) / 1e6 / (encodeNs / 1e9)
	out["trace.bytes_per_req"] = float64(len(encoded)) / float64(len(tr.Reqs))
	scanNs := repeatFor(budget/3, len(tr.Reqs), func() {
		sc, e := trace.NewScanner(bytes.NewReader(encoded))
		if e != nil {
			err = e
			return
		}
		n := 0
		for sc.Scan() {
			n++
		}
		if e := sc.Err(); e != nil {
			err = e
		} else if n != len(tr.Reqs) {
			err = fmt.Errorf("trace kernel scanned %d of %d requests", n, len(tr.Reqs))
		}
		sc.Close()
	})
	if err != nil {
		return err
	}
	out["trace.scan_reqs_per_s"] = 1e9 / scanNs
	out["trace.split_ns_per_req"] = repeatFor(budget/3, len(tr.Reqs), func() { tr.SplitClients() })
	return nil
}

// kernelMetrics prices one histogram observation, which the network path
// pays once per batch and so once per request on serve_lockstep.
func kernelMetrics(_ *inputs, budget time.Duration, out map[string]float64) error {
	var h metrics.Histogram
	const ops = 1 << 16
	v := uint64(12345)
	out["metrics.observe_ns_per_op"] = repeatFor(budget, ops, func() {
		for i := 0; i < ops; i++ {
			v = v*6364136223846793005 + 1442695040888963407
			h.Observe(v >> 40)
		}
	})
	return nil
}
