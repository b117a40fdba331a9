// Command clicsim simulates a storage-server cache over a trace file and
// reports the read hit ratio.
//
// Usage:
//
//	clicsim -trace traces/DB2_C60.trc -policy CLIC -cache 18000
//	clicsim -trace traces/DB2_C60.trc -policy LRU,ARC,TQ,CLIC,OPT -cache 6000,12000,18000
//	clicsim -trace traces/DB2_C60.trc -policy CLIC -cache 18000 -topk 100 -window 100000 -r 1
//	clicsim -trace traces/DB2_C60.trc -policy CLIC -cache 18000 -shards 8 -concurrent
//
// The policy × cache-size grid is fanned across a worker pool
// (internal/engine); -workers bounds the pool (default: all cores) and the
// numbers are identical at any setting. -shards runs CLIC behind the
// concurrency-safe sharded front (core.Sharded); adding -concurrent drives
// it with one goroutine per trace client instead of replaying serially.
// The front's shards learn through one shared learner over the full window
// W, each feeding it through a tap of its own. A serial replay
// holds each request's shard for that request alone; the concurrent serve
// hands each shard whole request frames, run by whichever client posted
// them or by whoever holds the shard at the time. Each concurrent serve
// ends with a "serve total:" line that adds its request rate.
//
// The CLIC settings (-topk, -window, -r, -noutq), the timeline
// (-timeline, -metrics-interval; -concurrent with a single policy × cache
// cell only) and the pprof file profiles (-cpuprofile, -memprofile) are the
// flags clicsim shares with cmd/clicserve, declared once in internal/cli.
//
// The simulator is also a client of the network protocol (internal/wire)
// that cmd/clicserve serves:
//
//	clicsim -connect :7070 -trace traces/DB2_C60.trc # replay over the wire
//
// -connect streams the trace file to a running server with one concurrent
// connection per trace client (one goroutine each) and reports per-client
// and total hit ratios measured from the server's responses; -limit caps
// the replayed request count and -batch sets the requests per batch (one
// wire frame on a single server, split by ring owner on a cluster; by
// default 512 per server, so every frame but a client's last holds 512).
// A negative -cache, -batch, -depth or -limit, a -shards below 1, or a
// flag that configures the local cache or grid (-policy, -cache, -shards,
// -concurrent, -workers, the CLIC settings, the timeline) beside -connect,
// or a -batch, -depth or -limit without it, is an error naming the flag.
// Every address is probed with a throwaway handshake before the replay
// starts, so a bad address or an incompatible server fails immediately with
// a clear error instead of mid-replay.
//
// -connect also takes a comma-separated address list — a cluster of
// clicserve nodes (internal/cluster). The replay then routes every
// request to its owning node (one router per trace client), each node
// owning an equal share of the pages. Placement is keyed by the set of
// address strings, so every client of a cluster should list the same
// addresses:
//
//	clicsim -connect :7070,:7071,:7072 -trace traces/DB2_C60.trc
//
// Everywhere a -trace file is accepted, -gen SPEC generates the workload
// live instead — SPEC is PRESET[*clients][:requests][@seed], e.g.
// DB2_C60*8:100000000 — so paper-scale runs need no trace file at all.
// Replays (-connect) and concurrent serves (-concurrent) consume the
// stream incrementally in constant memory; the serial grid path
// materialises it first (policies like OPT need the whole trace).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/netclient"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		tracePath  = flag.String("trace", "", "binary trace file (this or -gen is required)")
		genSpec    = flag.String("gen", "", "generate the workload live from a spec PRESET[*clients][:requests][@seed] instead of reading -trace")
		policies   = flag.String("policy", "CLIC", "comma-separated policies: "+strings.Join(sim.PolicyNames, ","))
		caches     = flag.String("cache", "18000", "comma-separated server cache sizes in pages")
		perClient  = flag.Bool("per-client", false, "report per-client hit ratios")
		workers    = flag.Int("workers", 0, "parallel grid cells (0 = all cores)")
		shards     = flag.Int("shards", 1, "CLIC: run behind a sharded concurrent front (>1 enables)")
		concurrent = flag.Bool("concurrent", false, "drive the sharded CLIC front with one goroutine per client (requires -shards > 1)")
		connect    = flag.String("connect", "", "replay the trace against a cache server (or a comma-separated cluster of servers) at these addresses")
		batch      = flag.Int("batch", 0, "-connect: requests per batch, split across a cluster's nodes (0 = 512 per node)")
		depth      = flag.Int("depth", 0, "-connect: pipelined batches in flight per connection (0 = default: 8, on a cluster 8 in total at most, at least 2 per node; 1 = lock-step)")
		limit      = flag.Int("limit", 0, "-connect: replay at most this many requests (0 = all)")
		opts       = cli.Register(flag.CommandLine)
	)
	flag.Parse()
	clicCfg, err := opts.Config()
	if err != nil {
		fatal(err)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"batch", *batch}, {"depth", *depth}, {"limit", *limit}} {
		if f.v < 0 {
			fatal(fmt.Errorf("-%s %d: must not be negative", f.name, f.v))
		}
	}
	if *shards < 1 {
		fatal(fmt.Errorf("-shards %d: must be at least 1", *shards))
	}
	// A replay's cache runs in the server, which keeps its own policy,
	// sizes, CLIC settings and timeline: refuse the first flag, in
	// lexicographic order, that would configure a local cache or grid.
	// -batch, -depth and -limit shape a replay's frames; a local serve
	// has none, so refuse the first one set, in lexicographic order.
	if *connect == "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "batch" || f.Name == "depth" || f.Name == "limit" {
				fatal(fmt.Errorf("-%s applies only to -connect", f.Name))
			}
		})
	}
	if *connect != "" {
		local := map[string]bool{"cache": true, "concurrent": true, "metrics-interval": true, "noutq": true,
			"policy": true, "r": true, "shards": true, "timeline": true, "topk": true, "window": true, "workers": true}
		flag.Visit(func(f *flag.Flag) {
			if local[f.Name] {
				fatal(fmt.Errorf("-%s does not apply to -connect", f.Name))
			}
		})
	}
	stopProf, err := opts.StartProfiles()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "clicsim: profile:", err)
		}
	}()
	if *tracePath == "" && *genSpec == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *tracePath != "" && *genSpec != "" {
		fatal(fmt.Errorf("-trace and -gen are mutually exclusive"))
	}
	src, label := source(*tracePath, *genSpec)
	if *connect != "" {
		replay(strings.Split(*connect, ","), src, label, *batch, *depth, *limit, *perClient)
		return
	}
	if *concurrent && *shards < 2 {
		fatal(fmt.Errorf("-concurrent requires -shards > 1 (a plain cache is not safe for concurrent use)"))
	}
	sizes := sizesOrDie(*caches)
	// The grid path needs the whole trace; the concurrent serve streams it
	// instead (constant memory at any trace length — a -gen spec never
	// materialises at all).
	var t *trace.Trace
	if !*concurrent {
		it, err := src.Iter()
		if err != nil {
			fatal(err)
		}
		t, err = trace.Collect(it)
		it.Close()
		if err != nil {
			fatal(err)
		}
	}

	// Build the policy × size grid as engine jobs, each with its own row
	// metadata so results and labels cannot drift apart.
	type cell struct {
		policy string
		size   int
	}
	var jobs []engine.Job
	var cells []cell
	anySharded := false
	for _, polName := range strings.Split(*policies, ",") {
		polName = strings.TrimSpace(polName)
		sharded := polName == "CLIC" && *shards > 1
		anySharded = anySharded || sharded
		if *concurrent && !sharded {
			// The concurrent serve drives the cache from one goroutine per
			// client; only the sharded CLIC front is safe for that.
			fatal(fmt.Errorf("-concurrent only supports CLIC behind -shards > 1; %q is not safe for concurrent use", polName))
		}
		if !sharded {
			if _, err := sim.NewPolicy(polName, 1, t, clicCfg); err != nil {
				fatal(err)
			}
		}
		for _, size := range sizes {
			var mk func() policy.Policy
			if sharded {
				cfg := clicCfg
				cfg.Capacity = sim.ClicCapacity(size)
				n := *shards
				mk = func() policy.Policy { return core.NewSharded(cfg, n) }
			} else {
				ctor := sim.Constructor(polName, t, clicCfg)
				size := size
				mk = func() policy.Policy { return ctor(size) }
			}
			jobs = append(jobs, engine.Job{New: mk, Trace: t})
			cells = append(cells, cell{policy: polName, size: size})
		}
	}
	if *shards > 1 && !anySharded {
		fatal(fmt.Errorf("-shards only applies to CLIC, which is not in -policy %q", *policies))
	}

	if opts.Timeline != "" && (!*concurrent || len(jobs) != 1) {
		// A timeline is the time-resolved story of one cache under load; a
		// grid of cells would interleave incomparable rows in one file.
		fatal(fmt.Errorf("-timeline requires -concurrent and a single policy × cache cell (got %d cells)", len(jobs)))
	}

	var results []sim.Result
	var elapsed []time.Duration // per concurrent serve
	if *concurrent {
		// Concurrent serving: every cell is one sharded front driven by all
		// clients at once; the cells themselves still run in sequence so
		// each front gets the full core budget.
		// The request stream is generated or read from disk again for each
		// cell, and never held in RAM.
		for _, j := range jobs {
			p := j.New()
			start := time.Now()
			if opts.Timeline != "" {
				results = append(results, serveTimeline(p, src, opts))
			} else {
				res, err := engine.ServeSource(p, src, 0)
				if err != nil {
					fatal(err)
				}
				results = append(results, res)
			}
			elapsed = append(elapsed, time.Since(start))
			if s, ok := p.(*core.Sharded); ok {
				s.Close()
			}
		}
	} else {
		results = engine.Run(jobs, engine.Options{Workers: *workers})
	}

	traceName, reqCount := label, uint64(0)
	if t != nil {
		traceName, reqCount = t.Name, uint64(t.Len())
	} else if len(results) > 0 {
		traceName, reqCount = results[0].Trace, results[0].Requests
	}
	tbl := report.NewTable(fmt.Sprintf("read hit ratio — trace %s (%s requests)",
		traceName, report.Num(reqCount)), "policy", "cache (pages)", "read hit ratio")
	for i, res := range results {
		label := cells[i].policy
		if label == "CLIC" && *shards > 1 {
			label = res.Policy // e.g. CLIC/8
		}
		tbl.AddRow(label, report.Num(cells[i].size), report.Pct(res.HitRatio()))
		if *perClient && len(res.PerClient) > 1 {
			for _, cs := range res.PerClient {
				tbl.AddRow("  "+cs.Name, "", report.Pct(cs.HitRatio()))
			}
		}
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fatal(err)
	}
	for i, d := range elapsed {
		printTotal("serve", results[i], d)
	}
}

// printTotal prints the one machine-greppable summary line of a serve or a
// replay (TestClusterSmoke parses the replay's).
func printTotal(kind string, res sim.Result, elapsed time.Duration) {
	fmt.Printf("%s total: requests=%d reads=%d hits=%d ratio=%.4f rate=%.0f\n", kind,
		res.Requests, res.Reads, res.ReadHits, res.HitRatio(), float64(res.Requests)/elapsed.Seconds())
}

// serveTimeline is engine.ServeSource with a timeline recorder attached:
// the standard cache columns (engine.CacheTimeline) over a batch-latency
// histogram fed by every client goroutine, one observation per run (one
// AccessBatch call, sized to the front by engine.ServeIterator), sampled
// every interval and on window rotations, with a final row when the
// replay drains.
func serveTimeline(p policy.Policy, src trace.Source, opts *cli.Flags) sim.Result {
	s, ok := p.(*core.Sharded)
	if !ok {
		fatal(fmt.Errorf("-timeline requires the sharded CLIC front"))
	}
	it, err := src.Iter()
	if err != nil {
		fatal(err)
	}
	defer it.Close()
	var lat metrics.Histogram
	stop, err := opts.StartTimeline(func(w io.Writer, interval time.Duration) func() {
		tl := metrics.NewTimeline(w)
		engine.CacheTimeline(tl, s, &lat)
		return tl.Start(interval, func() float64 { return float64(s.Windows()) })
	})
	if err != nil {
		fatal(err)
	}
	res, err := engine.ServeIterator(p, it, 0, &lat)
	if stopErr := stop(); stopErr != nil {
		fatal(fmt.Errorf("timeline: %w", stopErr))
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "clicsim: timeline written to %s\n", opts.Timeline)
	return res
}

// source resolves -trace/-gen into a request source plus a display label:
// a trace file streamed from disk, or a workload generated live from a
// spec — either way the replay and serve paths consume it incrementally.
func source(path, spec string) (trace.Source, string) {
	if spec != "" {
		s, err := workload.ParseSpec(spec)
		if err != nil {
			fatal(err)
		}
		return s.Source(), s.String()
	}
	return trace.FileSource(path), path
}

// replay streams the source to a cache server — or, with several
// addresses, routes it across a cluster by page owner — and reports
// the hit ratios the servers' responses imply. Every address is validated
// with a probe handshake before any request is replayed.
func replay(addrs []string, src trace.Source, label string, batch, depth, limit int, perClient bool) {
	for i, addr := range addrs {
		addrs[i] = strings.TrimSpace(addr)
		if addrs[i] == "" {
			fatal(fmt.Errorf("-connect: empty address in list"))
		}
		if err := netclient.Probe(addrs[i]); err != nil {
			fatal(fmt.Errorf("no usable cache server at %q: %w", addrs[i], err))
		}
	}
	var (
		res sim.Result
		err error
	)
	start := time.Now()
	if len(addrs) == 1 {
		// Single server: stream the source in constant memory.
		res, err = netclient.ReplaySource(addrs[0], src, netclient.ReplayOptions{BatchSize: batch, Depth: depth, Limit: limit})
	} else {
		// Cluster: the routers split batches by page owner and stream the
		// source in constant memory, announcing hint keys as they appear.
		nodes := make([]cluster.Node, len(addrs))
		for i, addr := range addrs {
			nodes[i] = cluster.Node{Name: addr, Addr: addr}
		}
		res, err = cluster.ReplaySource(nodes, src, cluster.ReplayOptions{BatchSize: batch, Depth: depth, Limit: limit})
	}
	elapsed := time.Since(start)
	if err != nil {
		fatal(fmt.Errorf("replaying %s: %w", label, err))
	}
	tbl := report.NewTable(fmt.Sprintf("networked replay — trace %s against %s at %s (%s requests)",
		res.Trace, res.Policy, strings.Join(addrs, ","), report.Num(res.Requests)),
		"client", "reads", "read hits", "hit ratio")
	if perClient && len(res.PerClient) > 1 {
		for _, cs := range res.PerClient {
			tbl.AddRow(cs.Name, report.Num(cs.Reads), report.Num(cs.ReadHits), report.Pct(cs.HitRatio()))
		}
	}
	tbl.AddRow("total", report.Num(res.Reads), report.Num(res.ReadHits), report.Pct(res.HitRatio()))
	if err := tbl.Render(os.Stdout); err != nil {
		fatal(err)
	}
	printTotal("replay", res, elapsed)
	// Client-side latency: every batch on every connection lands in the
	// process-wide RTT histogram, so this is the whole replay's view.
	if rtt := netclient.BatchRTT().Summary(); rtt.Count > 0 {
		fmt.Printf("batch rtt: batches=%d mean_us=%.1f p50_us=%.1f p99_us=%.1f\n",
			rtt.Count, rtt.Mean/1e3, rtt.P50/1e3, rtt.P99/1e3)
	}
}

func sizesOrDie(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal(fmt.Errorf("bad size %q: %w", part, err))
		}
		if err := cli.Check(core.Config{Capacity: v}); err != nil {
			fatal(err)
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clicsim:", err)
	os.Exit(1)
}
