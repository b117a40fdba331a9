// Command clicserve runs the CLIC cache as a standalone network server:
// clients connect over TCP, stream page requests with hints (the wire
// protocol of internal/wire), and receive hit/miss verdicts while the
// sharded second-tier cache learns caching priorities from their hints.
//
// Usage:
//
//	clicserve -addr :7070 -cache 18000 -shards 8
//	clicserve -addr :7070 -admin :7071 -cache 18000 -topk 100 -window 100000
//
// All shards of the sharded front feed one shared learner over the full
// window W, each through a tap of its own, so the priority model is
// cache-wide. Connection handlers hand each shard whole request frames and
// run them there themselves, or leave them to whichever handler holds the
// shard at the time.
//
// Several clicserve processes form a cluster (internal/cluster): clients
// route each request to the node owning its page, every node owning an
// equal share (clicsim -connect with the address list), and each node
// learns from the requests routed to it alone:
//
//	clicserve -addr :7070
//	clicserve -addr :7071
//	clicserve -addr :7072
//
// Run each node's share of the cluster-wide cache/window/outqueue budget
// (e.g. a third each for three nodes); the in-process harness splits them
// the same way.
//
// With -admin set, live statistics (the front aggregate, the per-shard
// breakdown, connection accounting, batch-latency summaries, the current
// window's per-hint-set statistics) are served as JSON at
// http://<admin>/stats, every layer's series in the Prometheus text format
// at http://<admin>/metrics, and the standard pprof handlers are mounted
// under http://<admin>/debug/pprof/. -timeline additionally streams
// per-interval CSV rows (hit ratio, throughput, outqueue depth, eviction
// and rotation counts, batch-latency quantiles) to a file it truncates
// first, sampled every -metrics-interval and on window rotations.
// -cpuprofile/-memprofile write file profiles covering the serving run
// (finished at graceful shutdown). On SIGINT/SIGTERM the server drains and
// prints a final accounting table.
//
// The CLIC settings (-topk, -window, -r, -noutq), -timeline,
// -metrics-interval, -cpuprofile and -memprofile are the flags clicserve
// shares with cmd/clicsim, declared once in internal/cli. The pipelining
// window a connection may keep in flight is server.DefaultMaxInflight.
//
// Replay a trace against it with clicsim -connect (see cmd/clicsim), or
// drive it from your own client via internal/netclient.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/sim"
)

func main() {
	var (
		addr   = flag.String("addr", ":7070", "page-request listen address")
		admin  = flag.String("admin", "", "admin HTTP listen address (empty = disabled)")
		cache  = flag.Int("cache", 18000, "server cache size in pages")
		shards = flag.Int("shards", 8, "CLIC shard count")
		opts   = cli.Register(flag.CommandLine)
	)
	flag.Parse()
	clicCfg, err := opts.Config()
	if err != nil {
		fatal(err)
	}
	if err := cli.Check(core.Config{Capacity: *cache}); err != nil {
		fatal(err)
	}
	if *shards < 1 {
		fatal(fmt.Errorf("-shards %d: must be at least 1", *shards))
	}
	stopProf, err := opts.StartProfiles()
	if err != nil {
		fatal(err)
	}

	// Dock the capacity 1% for CLIC's tracking structures (§6.1), like
	// every simulated CLIC run, so server hit ratios compare directly to
	// the in-process grid at the same -cache value.
	clicCfg.Capacity = sim.ClicCapacity(*cache)
	srv := server.New(server.Config{Cache: clicCfg, Shards: *shards})
	if err := srv.Listen(*addr); err != nil {
		fatal(err)
	}
	if *admin != "" {
		if err := srv.ListenAdmin(*admin); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "clicserve: admin stats at http://%s/stats, metrics at http://%s/metrics\n",
			srv.AdminAddr(), srv.AdminAddr())
	}
	stopTimeline, err := opts.StartTimeline(srv.StartTimeline)
	if err != nil {
		fatal(err)
	}
	if opts.Timeline != "" {
		fmt.Fprintf(os.Stderr, "clicserve: timeline every %s to %s\n", opts.Interval, opts.Timeline)
	}
	fmt.Fprintf(os.Stderr, "clicserve: %s front with %s pages serving on %s\n",
		srv.Cache().Name(), report.Num(*cache), srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case <-sig:
		fmt.Fprintln(os.Stderr, "clicserve: shutting down")
		if err := srv.Close(); err != nil {
			fatal(err)
		}
	}
	// The cache and its counters survive Close, so the final timeline row
	// still reads the end-of-run state.
	if err := stopTimeline(); err != nil {
		fmt.Fprintln(os.Stderr, "clicserve: timeline:", err)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "clicserve: profile:", err)
	}

	snap := srv.Snapshot(10)
	tbl := report.NewTable(fmt.Sprintf("%s — final accounting", snap.Policy),
		"client", "reads", "read hits", "hit ratio")
	for _, c := range snap.Clients {
		ratio := 0.0
		if c.Reads > 0 {
			ratio = float64(c.ReadHits) / float64(c.Reads)
		}
		tbl.AddRow(c.Name, report.Num(int(c.Reads)), report.Num(int(c.ReadHits)), report.Pct(ratio))
	}
	tbl.AddRow("overall", report.Num(int(snap.Core.Reads)), report.Num(int(snap.Core.ReadHits)),
		report.Pct(snap.Core.HitRatio()))
	if err := tbl.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clicserve:", err)
	os.Exit(1)
}
