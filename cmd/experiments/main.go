// Command experiments regenerates every table and figure of the paper's
// evaluation section (§6), printing each as a text table and optionally
// writing the whole set as a markdown report (-md).
//
// Usage:
//
//	experiments                        # run everything at full (scaled) size
//	experiments -fig 6                 # one figure
//	experiments -scale 0.25            # quick run at a quarter of the requests
//	experiments -workers 1             # force the serial path (same numbers)
//	experiments -cache traces -md out.md
//
// Each experiment's grid of independent simulations is fanned across a
// worker pool (internal/engine); -workers bounds the pool (default: all
// cores). The traces the selected experiments replay are also generated up
// front in parallel (workload.GenerateAll). Results are identical at any
// worker count.
//
// Beyond the paper's figures, -fig learner runs the partitioned-vs-global
// statistics ablation for the sharded CLIC front (see core.Config.Stats),
// and -fig cluster runs the distributed-CLIC ablation: a single node
// against a 3-node consistent-hash cluster with and without cross-node
// merged learning, replayed through the real router over loopback TCP
// (internal/cluster).
//
// -stream SPEC|FILE bypasses the figures and serves one sharded CLIC front
// straight from a live generator spec (PRESET[*clients][:requests][@seed])
// or a trace file, in bounded memory at any request count — the
// paper-scale mode; -stream-cache and -stream-shards size the front.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		fig      = flag.String("fig", "", "comma-separated figures to run: 2,3,5,6,7,8,9,10,11,ablations,learner,cluster,extension,zoo (empty = all)")
		scale    = flag.Float64("scale", 1, "request-count scale factor for quick runs")
		cacheDir = flag.String("cache", "traces", "trace cache directory (empty = regenerate every run)")
		mdPath   = flag.String("md", "", "also write all tables as markdown to this file")
		window   = flag.Int("window", 0, "CLIC window W override")
		decay    = flag.Float64("r", 0, "CLIC decay r override")
		workers  = flag.Int("workers", 0, "parallel simulations per experiment (0 = all cores)")
		progress = flag.Bool("progress", false, "log each completed grid cell to stderr")
		stream   = flag.String("stream", "", "stream one serve over a generator spec PRESET[*clients][:requests][@seed] or a trace file instead of running figures")
		sCache   = flag.Int("stream-cache", 18000, "-stream: server cache size in pages")
		sShards  = flag.Int("stream-shards", 8, "-stream: shards of the concurrent front")
	)
	flag.Parse()

	env := experiments.NewEnv(*cacheDir)
	env.Scale = *scale
	env.Window = *window
	env.R = *decay
	env.Workers = *workers
	if *stream != "" {
		runStream(*stream, *sCache, *sShards, *window, *decay)
		return
	}
	if *progress {
		env.Progress = func(done, total int, r sim.Result) {
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s %s cache=%d hit=%.1f%%\n",
				done, total, r.Trace, r.Policy, r.CacheSize, 100*r.HitRatio())
		}
	}

	var md strings.Builder
	emit := func(tables ...*report.Table) {
		for _, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				fatal(err)
			}
			md.WriteString(t.Markdown())
		}
	}

	type step struct {
		id     string
		traces []string // presets the step replays (prefetched in parallel)
		fn     func() ([]*report.Table, error)
	}
	one := func(fn func() (*report.Table, error)) func() ([]*report.Table, error) {
		return func() ([]*report.Table, error) {
			t, err := fn()
			if err != nil {
				return nil, err
			}
			return []*report.Table{t}, nil
		}
	}
	// Step trace lists reference the dependency variables declared next to
	// the experiment functions in internal/experiments, so the prefetch
	// cannot drift from what the functions replay.
	tpccTraces := experiments.TPCCTraceNames
	tpchTraces := experiments.TPCHTraceNames
	steps := []step{
		{"2", experiments.Fig2TraceNames, env.Fig2},
		{"3", []string{experiments.Fig3TraceName}, one(env.Fig3)},
		{"5", experiments.TraceNames, one(env.Fig5)},
		{"6", tpccTraces, env.Fig6},
		{"7", tpchTraces, env.Fig7},
		{"8", experiments.MySQLTraceNames, env.Fig8},
		{"9", append(append([]string{}, tpccTraces...), tpchTraces...), env.Fig9},
		{"10", tpccTraces, one(env.Fig10)},
		{"11", tpccTraces, one(env.Fig11)},
		{"ablations", []string{experiments.AblationTraceName}, func() ([]*report.Table, error) {
			var out []*report.Table
			for _, fn := range []func() (*report.Table, error){env.AblationR, env.AblationW, env.AblationOutqueue} {
				t, err := fn()
				if err != nil {
					return nil, err
				}
				out = append(out, t)
			}
			return out, nil
		}},
		{"learner", []string{experiments.LearnerTraceName}, one(env.AblationLearner)},
		{"cluster", []string{experiments.ClusterTraceName}, one(env.AblationCluster)},
		{"extension", tpccTraces, func() ([]*report.Table, error) {
			t, err := env.ExtensionGeneralize()
			if err != nil {
				return nil, err
			}
			return []*report.Table{t}, nil
		}},
		{"zoo", []string{experiments.AblationTraceName}, func() ([]*report.Table, error) {
			t, err := env.PolicyZoo(experiments.AblationTraceName, experiments.MidCacheSize)
			if err != nil {
				return nil, err
			}
			return []*report.Table{t}, nil
		}},
	}

	ids := make([]string, len(steps))
	for i, s := range steps {
		ids[i] = s.id
	}
	want, err := selectFigures(*fig, ids)
	if err != nil {
		fatal(err)
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }

	// Generate every trace the selected steps will replay up front, fanned
	// across the worker pool (simulations were already parallel; this
	// removes trace generation as the run's serial bottleneck).
	var wanted []string
	for _, s := range steps {
		if run(s.id) {
			wanted = append(wanted, s.traces...)
		}
	}
	fmt.Fprintln(os.Stderr, "== generating traces ==")
	if err := env.Prefetch(wanted, *workers); err != nil {
		fatal(err)
	}

	for _, s := range steps {
		if !run(s.id) {
			continue
		}
		fmt.Fprintf(os.Stderr, "== running experiment %s ==\n", s.id)
		tables, err := s.fn()
		if err != nil {
			fatal(err)
		}
		emit(tables...)
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "markdown written to %s\n", *mdPath)
	}
}

// selectFigures parses the -fig argument against the known figure ids. An
// empty argument selects everything (an empty set); an id that names no
// figure is an error listing the valid ones — running nothing and exiting
// 0 would read as a successful regeneration.
func selectFigures(arg string, ids []string) (map[string]bool, error) {
	want := map[string]bool{}
	if arg == "" {
		return want, nil
	}
	for _, f := range strings.Split(arg, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(ids, f) {
			return nil, fmt.Errorf("-fig: unknown figure %q (valid: %s)", f, strings.Join(ids, ","))
		}
		want[f] = true
	}
	return want, nil
}

// runStream is the paper-scale escape hatch: one sharded CLIC front served
// straight from a request source — a trace file if the argument names one
// on disk, otherwise a generator spec — in bounded memory at any request
// count. The whole stream is consumed exactly once; nothing is cached.
func runStream(arg string, cacheSize, shards, window int, r float64) {
	var src trace.Source
	if _, err := os.Stat(arg); err == nil {
		src = trace.FileSource(arg)
	} else {
		spec, err := workload.ParseSpec(arg)
		if err != nil {
			fatal(fmt.Errorf("-stream %q is neither a file nor a spec: %w", arg, err))
		}
		src = spec.Source()
	}
	cfg := core.Config{Capacity: sim.ClicCapacity(cacheSize), Window: window, R: r}
	front := core.NewSharded(cfg, shards)
	defer front.Close()
	start := time.Now()
	res, err := engine.ServeSource(front, src, 0)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	tbl := report.NewTable(fmt.Sprintf("streaming serve — %s against %s (%s requests)",
		res.Trace, res.Policy, report.Num(res.Requests)),
		"clients", "reads", "read hits", "hit ratio", "req/s")
	tbl.AddRow(report.Num(len(res.PerClient)), report.Num(res.Reads), report.Num(res.ReadHits),
		fmt.Sprintf("%.1f%%", 100*res.HitRatio()),
		fmt.Sprintf("%.2fM", float64(res.Requests)/elapsed.Seconds()/1e6))
	if err := tbl.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
