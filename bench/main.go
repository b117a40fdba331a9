// Command bench is the repository's benchmark: one command generates the
// inputs from a seed, runs the named workloads in interleaved rounds,
// prints every metric by name and unit, and checks that the outputs are
// correct. With -trace 1 it runs the workloads with the harness driving
// each layer's public calls itself, records spans around them, and prints
// the per-layer metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// carries the same tables (a test keeps them equal) plus the bounds.
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd is what a user of the system sees, per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"reqs_per_s", "1/s", "higher"},
	{"cpu_ns_per_req", "ns", "lower"},
	{"read_hit_pct", "%", "higher"},
	{"rtt_p50_us", "us", "lower"},
	{"rtt_p99_us", "us", "lower"},
	{"answered_pct", "%", "higher"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer is the waterfall: kernel figures price a layer's calls in
// isolation, the rest are what the traced workload's own passes did.
var perLayer = []metricDef{
	{"core.access_ns_per_req", "ns", "lower"},
	{"core.hit_path_ns_per_req", "ns", "lower"},
	{"core.batch_ns_per_req", "ns", "lower"},
	{"core.handoff_ns_per_req", "ns", "lower"},
	{"core.evictions_per_kreq", "count", "lower"},
	{"core.windows_rotated", "count", "higher"},
	{"core.outq_len", "count", "lower"},
	{"core.shard_imbalance", "ratio", "lower"},
	{"clicstats.arrive_ns_per_req", "ns", "lower"},
	{"clicstats.tracked_hint_sets", "count", "lower"},
	{"spacesaving.update_ns_per_op", "ns", "lower"},
	{"engine.dispatch_ns_per_req", "ns", "lower"},
	{"engine.batches", "count", "lower"},
	{"wire.encode_batch_ns_per_req", "ns", "lower"},
	{"wire.decode_batch_ns_per_req", "ns", "lower"},
	{"wire.encode_results_ns_per_req", "ns", "lower"},
	{"wire.decode_results_ns_per_req", "ns", "lower"},
	{"wire.bytes_per_req", "B", "lower"},
	{"wire.frames_per_kreq", "count", "lower"},
	{"loopback.echo_small_rtt_us", "us", "lower"},
	{"loopback.echo_batch_rtt_us", "us", "lower"},
	{"server.batch_service_p50_us", "us", "lower"},
	{"server.batch_service_p99_us", "us", "lower"},
	{"server.flushes_per_kreq", "count", "lower"},
	{"server.conn_setup_us", "us", "lower"},
	{"netclient.submit_ns_per_req", "ns", "lower"},
	{"netclient.wait_pct", "%", "lower"},
	{"netclient.rtt_p999_us", "us", "lower"},
	{"netclient.batch_size_final", "count", "higher"},
	{"netclient.batches", "count", "lower"},
	{"cluster.ring_owner_ns_per_req", "ns", "lower"},
	{"cluster.router_submit_ns_per_req", "ns", "lower"},
	{"cluster.subbatches_per_batch", "count", "lower"},
	{"cluster.node_imbalance", "ratio", "lower"},
	{"cluster.merge_rounds", "count", "higher"},
	{"cluster.summaries_published", "count", "higher"},
	{"cluster.summaries_absorbed", "count", "higher"},
	{"workload.gen_reqs_per_s", "1/s", "higher"},
	{"workload.gen_allocs_per_kreq", "count", "lower"},
	{"trace.encode_mb_per_s", "MB/s", "higher"},
	{"trace.scan_reqs_per_s", "1/s", "higher"},
	{"trace.bytes_per_req", "B", "lower"},
	{"trace.split_ns_per_req", "ns", "lower"},
	{"metrics.observe_ns_per_op", "ns", "lower"},
	{"go.allocs_per_kreq", "count", "lower"},
	{"go.alloc_bytes_per_req", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"host.calib_ns_per_op", "ns", "lower"},
	{"host.gomaxprocs", "count", "higher"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	reqs     int
	rounds   int
	out      string
}

func main() {
	var opt options
	var compare bool
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&opt.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&opt.seed, "seed", 7, "seed the inputs are generated from")
	fs.Float64Var(&opt.seconds, "seconds", 10, "seconds to measure for")
	fs.IntVar(&opt.trace, "trace", 0, "1: drive the layers from the harness, record spans, print per-layer metrics")
	fs.IntVar(&opt.reqs, "reqs", 1000000, "requests in the generated trace")
	fs.IntVar(&opt.rounds, "rounds", 0, "stop after this many rounds (0: when -seconds have passed)")
	fs.StringVar(&opt.out, "out", "", "also write the results to this JSON file, for -compare")
	fs.BoolVar(&compare, "compare", false, "compare two -out files: bench -compare A.json B.json")
	fs.Parse(os.Args[1:])

	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(runCompare(fs.Arg(0), fs.Arg(1), os.Stdout))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		os.Exit(2)
	}
	rep, err := run(opt, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	rep.print(os.Stdout)
	if opt.out != "" {
		if err := rep.file.write(opt.out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	// The result line is the last line of standard output.
	fmt.Fprintln(os.Stdout, rep.resultLine())
	if !rep.correct() {
		os.Exit(1)
	}
}

// setups is how many times an untraced run sets every workload up; the
// reported set-up time is the median, so one slow set-up does not move it.
const setups = 3

// minRounds is the fewest rounds a quartile is taken over.
const minRounds = 8

// wstate is one selected workload's runner and everything measured on it.
type wstate struct {
	def workloadDef
	r   runner

	samples   map[string][]float64 // end-to-end metric → one value per round (or per set-up)
	raw       map[string][]float64 // the timing metrics' samples before host normalisation
	hitCounts []uint64             // read hits of every timed pass, the determinism oracle
	attempted uint64
	failed    uint64
	timed     time.Duration // sum of the timed regions
	rttN      int           // round-trip samples in the last round
	problems  []string

	// Traced runs only.
	tracedRate []float64 // reqs/s of the harness-driven passes
	tracedReqs uint64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	goReqs     uint64
	layers     layerSnap
	client     clientTotals
	lastPass   passOut // the last traced pass, whose spans are written out
	lastSpans  []span
	layer      map[string]float64
}

func (ws *wstate) add(metric string, v float64) {
	ws.samples[metric] = append(ws.samples[metric], v)
}

// addNormalised files a host-normalised sample and keeps the raw figure
// beside it.
func (ws *wstate) addNormalised(metric string, normalised, raw float64) {
	ws.add(metric, normalised)
	ws.raw[metric] = append(ws.raw[metric], raw)
}

func (ws *wstate) problem(format string, args ...any) {
	ws.problems = append(ws.problems, fmt.Sprintf(format, args...))
}

// measurement is what timed records around one timed region.
type measurement struct {
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	layers     layerSnap
}

// timed returns the bracket a runner puts around its timed region: a
// collection first, so every pass starts from the same heap, then wall
// clock, process CPU, allocation and layer counters on both sides.
func timed(m *measurement) func(func() error) error {
	return func(fn func() error) error {
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		var l0 layerSnap
		runtime.ReadMemStats(&ms0)
		snapLayers(&l0)
		cpu0 := processCPU()
		t0 := time.Now()
		err := fn()
		m.wall = time.Since(t0)
		m.cpu = processCPU() - cpu0
		snapLayers(&m.layers)
		m.layers.sub(&l0)
		runtime.ReadMemStats(&ms1)
		m.mallocs = ms1.Mallocs - ms0.Mallocs
		m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		m.gcCycles = ms1.NumGC - ms0.NumGC
		return err
	}
}

// processCPU is the user plus system CPU time the process has used. The
// load generator runs in-process, so its CPU is included: this is what
// the operator of a host running both sides pays per request.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// calibOps is the length of one calibration kernel run (about 25 ms).
const calibOps = 800000

// calibRef is the calibration kernel's cost, in ns per operation, on the
// host the timing metrics are normalised to: this container when quiet.
const calibRef = 32.0

// hostDamping is the share of the kernel's drift the workloads follow.
// The kernel is all cache misses; the workloads also compute, hand off
// and make system calls, so a noisy neighbour that slows the kernel by
// 40% slows them by about 30%. Fitted over ten seeds of each workload
// while the host drifted: at 0.75 every timing metric's spread between
// runs stayed under 8%; at 1 serve_inproc and serve_lockstep reached 14%
// (over-corrected), at 0.5 sim_serial 13% (under-corrected), at 0, which
// is no normalisation, 11–28%.
const hostDamping = 0.75

// slowdown is how much slower than the reference host a workload ran
// while the calibration kernel cost calib ns per operation.
func slowdown(calib float64) float64 { return math.Pow(calib/calibRef, hostDamping) }

// calibrator is the benchmark's own kernel — a Go map and a ring over the
// trace's pages, no repository code. It runs before and after every pass:
// when it moves, the host moved. This host's speed drifts by 15% and more
// for minutes at a time and the kernel tracks the drift, so each pass's
// timings are scaled by the slowdown the mean of its two neighbouring
// calibrations shows (see wstate.file).
//
// The map holds every distinct page and the ring is 8 MB, indexed by a
// hash of the page, so the kernel misses the CPU caches the way the cache
// under test does. A kernel that fit in L2 tracked the drift of the
// workloads only half as well: they lose more to a noisy neighbour than
// it did.
type calibrator struct {
	pages []uint64
	seen  map[uint64]uint32
	ring  []uint64
}

func newCalibrator(pages []uint64) *calibrator {
	c := &calibrator{pages: pages[:min(calibOps, len(pages))], seen: make(map[uint64]uint32), ring: make([]uint64, 1<<20)}
	for _, p := range pages {
		c.seen[p] = 0
	}
	return c
}

// run returns the kernel's cost in ns per operation.
func (c *calibrator) run() float64 {
	mask := uint64(len(c.ring) - 1)
	t0 := time.Now()
	for _, p := range c.pages {
		c.seen[p]++
		c.ring[(p*0x9e3779b97f4a7c15>>40)&mask] += p
	}
	return float64(time.Since(t0)) / float64(len(c.pages))
}

// run executes the benchmark and returns its report.
func run(opt options, log io.Writer) (*report, error) {
	if opt.reqs < clients*batchSize {
		return nil, fmt.Errorf("-reqs %d is too small: need at least %d", opt.reqs, clients*batchSize)
	}
	if opt.trace != 0 && opt.trace != 1 {
		return nil, fmt.Errorf("-trace %d: want 0 or 1", opt.trace)
	}
	if opt.seconds <= 0 {
		return nil, fmt.Errorf("-seconds %v: want a positive duration", opt.seconds)
	}
	procs := runtime.GOMAXPROCS(0)
	if procs > runtime.NumCPU() {
		return nil, fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs available: the figures would measure oversubscription", procs, runtime.NumCPU())
	}
	var states []*wstate
	for _, def := range workloadDefs {
		if opt.workload == "all" || opt.workload == def.name {
			states = append(states, &wstate{def: def, samples: make(map[string][]float64), raw: make(map[string][]float64)})
		}
	}
	if len(states) == 0 {
		names := make([]string, len(workloadDefs))
		for i, def := range workloadDefs {
			names[i] = def.name
		}
		return nil, fmt.Errorf("unknown workload %q (known: %s, all)", opt.workload, strings.Join(names, ", "))
	}
	traced := opt.trace == 1
	rep := &report{opt: opt, states: states, traced: traced, procs: procs}
	defer func() {
		for _, ws := range states {
			if ws.r != nil {
				ws.r.close()
			}
		}
	}()

	// Set-up: generate the trace, build each workload and run its warm-up
	// pass. An untraced run repeats all of it and reports the medians.
	n := setups
	if traced {
		n = 1
	}
	var (
		in  *inputs
		cal *calibrator
	)
	for k := 0; k < n; k++ {
		for _, ws := range states {
			if ws.r != nil {
				if err := ws.r.close(); err != nil {
					return nil, fmt.Errorf("%s: closing: %w", ws.def.name, err)
				}
				ws.r = nil
			}
		}
		t0 := time.Now()
		var err error
		if in, err = generate(opt.seed, opt.reqs); err != nil {
			return nil, err
		}
		gen := time.Since(t0)
		if cal == nil {
			cal = newCalibrator(in.pages) // before any heap baseline is taken
		}
		for _, ws := range states {
			before := liveHeap()
			t1 := time.Now()
			if ws.r, err = ws.def.build(in); err != nil {
				return nil, fmt.Errorf("%s: %w", ws.def.name, err)
			}
			if err := ws.r.warm(); err != nil {
				return nil, fmt.Errorf("%s: %w", ws.def.name, err)
			}
			setup := (gen + time.Since(t1)).Seconds()
			ws.addNormalised("setup_s", setup/slowdown(cal.run()), setup)
			ws.add("live_heap_mb", (float64(liveHeap())-float64(before))/1e6)
		}
		fmt.Fprintf(log, "set-up %d/%d: %s generated in %.2fs\n", k+1, n, in.spec, gen.Seconds())
	}

	// The paper's figure ordering needs a trace long enough to mean it.
	if opt.reqs >= oraclePrefix {
		desc, err := checkPaperOrdering(in)
		if err != nil {
			rep.problems = append(rep.problems, err.Error())
		}
		fmt.Fprintf(log, "paper ordering on the %d-request prefix: %s\n", oraclePrefix, desc)
	} else {
		fmt.Fprintf(log, "paper ordering check skipped: -reqs %d is below the %d-request prefix it needs\n", opt.reqs, oraclePrefix)
	}

	budget := time.Duration(opt.seconds * float64(time.Second))
	if !traced {
		rep.rounds(cal, budget, false)
	} else {
		// A quarter of the time untraced, for the overhead's base and the
		// allocation figures; a quarter traced; half on the layer kernels.
		rep.rounds(cal, budget/4, false)
		before := make([]tracedBase, len(states))
		for i, ws := range states {
			var err error
			if before[i], err = ws.tracedBaseline(); err != nil {
				return nil, err
			}
		}
		rep.rounds(cal, budget/4, true)
		kernelOut := make(map[string]float64)
		shares := 0
		for _, k := range kernels {
			shares += k.shares
		}
		for _, k := range kernels {
			if err := k.run(in, budget/2*time.Duration(k.shares)/time.Duration(shares), kernelOut); err != nil {
				return nil, fmt.Errorf("kernel %s: %w", k.name, err)
			}
		}
		calib := summarize(rep.calib).Median
		for i, ws := range states {
			if err := ws.finishTraced(before[i], kernelOut, calib, procs); err != nil {
				return nil, err
			}
		}
	}
	for _, ws := range states {
		if err := ws.r.close(); err != nil {
			ws.problem("closing: %v", err)
		}
		ws.r = nil
	}
	rep.finish()
	return rep, nil
}

// timing is one pass's raw timing figures, before host normalisation.
type timing struct {
	rate  float64 // requests per wall second
	cpuNs float64 // process CPU per request
	p50   float64 // batch round trip, µs
	p99   float64
	rttN  int // round-trip samples behind p50 and p99
}

// rounds runs interleaved rounds until the budget is spent: every round
// gives each selected workload one pass in turn, so host noise lands on
// all of them alike, and the calibration kernel runs between passes.
func (rep *report) rounds(cal *calibrator, budget time.Duration, traced bool) {
	start := time.Now()
	before := cal.run()
	rep.calib = append(rep.calib, before)
	for r := 0; ; r++ {
		if rep.opt.rounds > 0 && r >= rep.opt.rounds {
			break
		}
		if r > 0 && time.Since(start) >= budget {
			break
		}
		for _, ws := range rep.states {
			pass := ws.round
			if traced {
				pass = ws.tracedRound
			}
			t, err := pass(r)
			after := cal.run()
			rep.calib = append(rep.calib, after)
			if err != nil {
				ws.problem("round %d: %v", r, err)
			} else {
				ws.file(t, slowdown((before+after)/2), traced)
			}
			before = after
		}
	}
}

// file records a pass's timings, normalised to the reference host: slow
// is how much slower than the reference the host ran around the pass, so
// rates are scaled up by it and times down. The raw figures are kept
// beside the normalised ones.
func (ws *wstate) file(t timing, slow float64, traced bool) {
	if traced {
		ws.tracedRate = append(ws.tracedRate, t.rate*slow)
		return
	}
	ws.addNormalised("reqs_per_s", t.rate*slow, t.rate)
	ws.addNormalised("cpu_ns_per_req", t.cpuNs/slow, t.cpuNs)
	ws.rttN = t.rttN
	if t.rttN > 0 {
		ws.addNormalised("rtt_p50_us", t.p50/slow, t.p50)
		ws.addNormalised("rtt_p99_us", t.p99/slow, t.p99)
	}
}

// round runs one timed pass through the product entry point.
func (ws *wstate) round(r int) (timing, error) {
	var m measurement
	out, err := ws.r.pass(r, timed(&m))
	ws.attempted += uint64(out.reqs)
	ws.failed += out.failed
	if err != nil {
		return timing{}, err
	}
	ws.timed += m.wall
	ws.mallocs += m.mallocs
	ws.allocBytes += m.allocBytes
	ws.gcCycles += m.gcCycles
	ws.goReqs += uint64(out.reqs)
	ws.hitCounts = append(ws.hitCounts, out.hits)
	if out.reads > 0 {
		ws.add("read_hit_pct", 100*float64(out.hits)/float64(out.reads))
	}
	reqs := float64(out.reqs)
	t := timing{rate: reqs / m.wall.Seconds(), cpuNs: float64(m.cpu) / reqs}
	t.p50, t.p99, t.rttN = roundTrips(out.latency, &m.layers)
	return t, nil
}

// roundTrips returns a pass's median and 99th-percentile batch round
// trip in µs and the sample count: from the harness's own per-batch
// timings where it made the calls, otherwise from the netclient
// histogram's movement during the pass.
func roundTrips(latency []int64, layers *layerSnap) (p50, p99 float64, n int) {
	if len(latency) > 0 {
		us := make([]float64, len(latency))
		for i, ns := range latency {
			us[i] = float64(ns) / 1e3
		}
		sort.Float64s(us)
		return quantileSorted(us, 0.50), quantileSorted(us, 0.99), len(us)
	}
	n = histCount(&layers.rtt)
	if n == 0 {
		return 0, 0, 0
	}
	return histQuantileUs(&layers.rtt, 0.50), histQuantileUs(&layers.rtt, 0.99), n
}

// tracedBase is the state of a workload's counters before its traced
// passes, so the passes' own share can be taken by difference.
type tracedBase struct {
	cache   cacheCounters
	servers serverSnap
}

func (ws *wstate) tracedBaseline() (tracedBase, error) {
	srv, err := snapServers(ws.r.servers())
	return tracedBase{cache: ws.r.counters(), servers: srv}, err
}

// tracedRound runs one pass with the harness driving the layer calls and
// recording spans; the last pass is kept for the span file.
func (ws *wstate) tracedRound(r int) (timing, error) {
	var m measurement
	out, err := ws.r.driven(r, timed(&m))
	ws.attempted += uint64(out.reqs)
	ws.failed += out.failed
	if err != nil {
		return timing{}, err
	}
	ws.tracedReqs += uint64(out.reqs)
	ws.layers.add(&m.layers)
	ws.client.add(out.client)
	ws.lastPass = out
	return timing{rate: float64(out.reqs) / m.wall.Seconds()}, nil
}

// finishTraced turns the traced passes' counters into the per-layer
// metrics and writes the span file.
func (ws *wstate) finishTraced(base tracedBase, kernelOut map[string]float64, calib float64, procs int) error {
	l := make(map[string]float64, len(perLayer))
	for k, v := range kernelOut {
		l[k] = v
	}
	reqs := float64(ws.tracedReqs)
	per := func(total float64) float64 {
		if reqs == 0 {
			return 0
		}
		return total / reqs
	}
	cache := ws.r.counters()
	l["core.evictions_per_kreq"] = 1000 * per(float64(cache.evictions-base.cache.evictions))
	l["core.windows_rotated"] = float64(cache.windows - base.cache.windows)
	l["core.outq_len"] = float64(cache.outq)
	l["core.shard_imbalance"] = imbalance(cache.perShard, base.cache.perShard)
	l["cluster.node_imbalance"] = imbalance(cache.perNode, base.cache.perNode)

	l["wire.bytes_per_req"] = per(float64(ws.layers.wireBytes))
	l["wire.frames_per_kreq"] = 1000 * per(float64(ws.layers.wireFrames))

	srv, err := snapServers(ws.r.servers())
	if err != nil {
		return err
	}
	srv.sub(&base.servers)
	l["server.batch_service_p50_us"] = histQuantileUs(&srv.service, 0.50)
	l["server.batch_service_p99_us"] = histQuantileUs(&srv.service, 0.99)
	l["server.flushes_per_kreq"] = 1000 * per(srv.flushes)
	l["cluster.merge_rounds"] = srv.rounds
	l["cluster.summaries_published"] = srv.published
	l["cluster.summaries_absorbed"] = srv.absorbed

	c := ws.client
	netBatches := float64(histCount(&ws.layers.rtt))
	l["netclient.batches"] = netBatches
	l["netclient.rtt_p999_us"] = histQuantileUs(&ws.layers.rtt, 0.999)
	l["netclient.batch_size_final"] = float64(c.finalBatch)
	if c.connects > 0 {
		l["server.conn_setup_us"] = float64(c.connectNs) / float64(c.connects) / 1e3
	}
	if c.wallNs > 0 {
		l["netclient.wait_pct"] = 100 * float64(c.waitNs) / float64(c.wallNs)
	}
	// The harness calls Submit on the router for the cluster workload and
	// on the connection pipeline otherwise; the time belongs to whichever
	// layer's Submit it was.
	submit := "netclient.submit_ns_per_req"
	if len(ws.r.servers()) > 1 {
		submit = "cluster.router_submit_ns_per_req"
		if c.batches > 0 {
			l["cluster.subbatches_per_batch"] = netBatches / float64(c.batches)
		}
	}
	l[submit] = per(float64(c.submitNs))

	if ws.goReqs > 0 {
		l["go.allocs_per_kreq"] = 1000 * float64(ws.mallocs) / float64(ws.goReqs)
		l["go.alloc_bytes_per_req"] = float64(ws.allocBytes) / float64(ws.goReqs)
	}
	l["go.gc_cycles"] = float64(ws.gcCycles)
	l["host.calib_ns_per_op"] = calib
	l["host.gomaxprocs"] = float64(procs)
	base0 := summarize(ws.samples["reqs_per_s"]).Median
	if base0 > 0 {
		l["bench.trace_overhead_pct"] = 100 * (base0 - summarize(ws.tracedRate).Median) / base0
	}
	ws.layer = l

	ws.lastSpans = mergeSpans(ws.def.name, ws.lastPass.passNs, ws.lastPass.recs)
	dir, err := outDir()
	if err != nil {
		return err
	}
	return writeSpans(filepath.Join(dir, "spans-"+ws.def.name+".jsonl"), ws.lastSpans)
}

// imbalance is the busiest part's load over the mean load, by difference
// between two snapshots of per-part request counts; 1 is perfectly even.
func imbalance(now, before []uint64) float64 {
	if len(now) == 0 {
		return 1
	}
	var sum, top float64
	for i, v := range now {
		d := float64(v)
		if i < len(before) {
			d -= float64(before[i])
		}
		sum += d
		top = math.Max(top, d)
	}
	if sum == 0 {
		return 1
	}
	return top / (sum / float64(len(now)))
}

// repoRoot finds the checkout's root from the working directory: the
// benchmark is run either from there or from this directory.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

// outDir is bench/out under the repository root, created on demand.
func outDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// ---- report -----------------------------------------------------------

// report is a finished run.
type report struct {
	opt      options
	states   []*wstate
	traced   bool
	procs    int
	calib    []float64
	problems []string
	file     resultFile
}

// metricResult is one end-to-end metric of one workload in a result file.
type metricResult struct {
	summary
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"` // one per round, or per set-up
	// RawMedian is the median before host normalisation, for the timing
	// metrics that are normalised; zero otherwise.
	RawMedian float64 `json:"raw_median,omitempty"`
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	EndToEnd     map[string]metricResult `json:"end_to_end,omitempty"`
	PerLayer     map[string]float64      `json:"per_layer,omitempty"`
	HitCounts    []uint64                `json:"hit_counts"`
	Rounds       int                     `json:"rounds"`
	TimedSeconds float64                 `json:"timed_seconds"`
	Attempted    uint64                  `json:"attempted"`
	Failed       uint64                  `json:"failed"`
	Problems     []string                `json:"problems,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed       int64                      `json:"seed"`
	Reqs       int                        `json:"reqs"`
	Gomaxprocs int                        `json:"gomaxprocs"`
	Traced     bool                       `json:"traced"`
	Calib      summary                    `json:"host.calib_ns_per_op"`
	CalibRaw   []float64                  `json:"calib_samples"`
	Problems   []string                   `json:"problems,omitempty"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// finish checks what only the whole run can show and assembles the file.
func (rep *report) finish() {
	rep.file = resultFile{
		Seed:       rep.opt.seed,
		Reqs:       rep.opt.reqs,
		Gomaxprocs: rep.procs,
		Traced:     rep.traced,
		Calib:      summarize(rep.calib),
		CalibRaw:   rep.calib,
		Problems:   rep.problems,
		Workloads:  make(map[string]*workloadResult),
	}
	for _, ws := range rep.states {
		if ws.attempted == 0 {
			ws.problem("no requests attempted")
		}
		if ws.failed > 0 {
			ws.problem("%d of %d requests got no verdict", ws.failed, ws.attempted)
		}
		rounds := len(ws.samples["reqs_per_s"])
		if rep.opt.rounds == 0 && !rep.traced && rounds < minRounds {
			ws.problem("only %d rounds fit in %.0fs: quartiles need %d", rounds, rep.opt.seconds, minRounds)
		}
		answered := 0.0
		if ws.attempted > 0 {
			answered = 100 * float64(ws.attempted-min(ws.failed, ws.attempted)) / float64(ws.attempted)
		}
		ws.samples["answered_pct"] = []float64{answered}
		wr := &workloadResult{
			HitCounts:    ws.hitCounts,
			Rounds:       rounds,
			TimedSeconds: ws.timed.Seconds(),
			Attempted:    ws.attempted,
			Failed:       ws.failed,
		}
		if rep.traced {
			wr.PerLayer = ws.layer
			for _, d := range perLayer {
				if _, ok := ws.layer[d.name]; !ok {
					ws.layer[d.name] = 0
				}
			}
		} else {
			wr.EndToEnd = make(map[string]metricResult, len(endToEnd))
			for _, d := range endToEnd {
				if len(ws.samples[d.name]) == 0 {
					ws.problem("metric %s has no samples", d.name)
				}
				wr.EndToEnd[d.name] = metricResult{
					summary:   summarize(ws.samples[d.name]),
					Unit:      d.unit,
					Samples:   ws.samples[d.name],
					RawMedian: summarize(ws.raw[d.name]).Median,
				}
			}
		}
		wr.Problems = ws.problems
		rep.file.Workloads[ws.def.name] = wr
	}
}

// correct reports whether every check passed.
func (rep *report) correct() bool {
	if len(rep.problems) > 0 {
		return false
	}
	for _, ws := range rep.states {
		if len(ws.problems) > 0 {
			return false
		}
	}
	return true
}

// print writes the human-readable tables.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "seed %d · %d requests · GOMAXPROCS %d · %d closed-loop client streams · host loopback, not a link\n",
		rep.opt.seed, rep.opt.reqs, rep.procs, clients)
	c := rep.file.Calib
	fmt.Fprintf(w, "host.calib_ns_per_op  median %.3f  q1 %.3f  q3 %.3f  n %d\n\n", c.Median, c.Q1, c.Q3, c.N)
	for _, ws := range rep.states {
		wr := rep.file.Workloads[ws.def.name]
		fmt.Fprintf(w, "%s — %s\n", ws.def.name, ws.def.why)
		fmt.Fprintf(w, "  rounds %d · timed %.2fs · attempted %d · failed %d\n", wr.Rounds, wr.TimedSeconds, wr.Attempted, wr.Failed)
		if rep.traced {
			fmt.Fprintf(w, "  %-36s %16s  %s\n", "per-layer metric", "value", "unit")
			for _, d := range perLayer {
				fmt.Fprintf(w, "  %-36s %16.4f  %s\n", d.name, ws.layer[d.name], d.unit)
			}
			self := selfTimes(ws.lastSpans)
			names := make([]string, 0, len(self))
			for name := range self {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Fprintf(w, "  self time in the last traced pass (%d spans):\n", len(ws.lastSpans))
			for _, name := range names {
				fmt.Fprintf(w, "    %-28s %12.3f ms\n", name, float64(self[name])/1e6)
			}
		} else {
			fmt.Fprintf(w, "  %-16s %16s %16s %16s %5s  %-5s %s\n", "metric", "median", "q1", "q3", "n", "unit", "median before host normalisation")
			for _, d := range endToEnd {
				m := wr.EndToEnd[d.name]
				fmt.Fprintf(w, "  %-16s %16.4f %16.4f %16.4f %5d  %-5s", d.name, m.Median, m.Q1, m.Q3, m.N, d.unit)
				if m.RawMedian != 0 {
					fmt.Fprintf(w, " %.4f", m.RawMedian)
				}
				fmt.Fprintln(w)
			}
			if p, ok := highestPercentile(ws.rttN); ok {
				fmt.Fprintf(w, "  round-trip samples per round: %d (supports up to p%g with %d beyond)\n", ws.rttN, 100*p, minBeyond)
			}
			if !supports(ws.rttN, 0.99) {
				fmt.Fprintf(w, "  note: %d round-trip samples per round leave fewer than %d beyond p99\n", ws.rttN, minBeyond)
			}
		}
		for _, p := range ws.problems {
			fmt.Fprintf(w, "  PROBLEM: %s\n", p)
		}
		fmt.Fprintln(w)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
}

// resultLine is the one-line JSON result. With one workload selected the
// metric names are bare; with several they carry the workload as prefix.
func (rep *report) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.correct(), Metrics: make(map[string]value)}
	for _, ws := range rep.states {
		res.Attempted += ws.attempted
		res.Failed += ws.failed
		prefix := ""
		if len(rep.states) > 1 {
			prefix = ws.def.name + "."
		}
		if rep.traced {
			for _, d := range perLayer {
				res.Metrics[prefix+d.name] = value{finite(ws.layer[d.name]), d.unit}
			}
		} else {
			for _, d := range endToEnd {
				res.Metrics[prefix+d.name] = value{finite(rep.file.Workloads[ws.def.name].EndToEnd[d.name].Median), d.unit}
			}
		}
	}
	if !res.Correct && res.Failed == 0 {
		res.Failed = 1 // a failed check with every request answered is still a failure
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // every value is finite and every key a string
	}
	return string(b)
}

// finite maps the values JSON cannot carry to zero.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
