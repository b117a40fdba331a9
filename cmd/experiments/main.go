// Command experiments regenerates every table and figure of the paper's
// evaluation section (§6), printing each as a text table and optionally
// writing the whole set as a markdown report (-md).
//
// Usage:
//
//	experiments                        # run everything at full (scaled) size
//	experiments -fig 6                 # one figure
//	experiments -scale 0.25            # quick run at a quarter of the requests (0 < scale <= 1000)
//	experiments -workers 1             # a pool of one (same numbers)
//	experiments -md out.md             # also write the tables as markdown
//
// The figures, their ids and the traces each replays are the registry
// experiments.Figures. The traces the selected figures replay are generated
// afresh every run, up front and in parallel (experiments.Env.Prefetch),
// and each figure's grid of independent simulations is fanned across the
// same worker pool (engine.Each); -workers sizes it (default: all cores).
// Results are identical at any worker count.
//
// Beyond the paper's figures, -fig cluster runs the distributed-CLIC
// ablation: a single node against a 3-node consistent-hash cluster on four
// traces, replayed through the real router over loopback TCP
// (internal/cluster).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// maxScale bounds -scale. Every trace is held in memory, and at this scale
// the largest preset is already 2.4 billion requests; far enough past it
// the scaled request count overflows.
const maxScale = 1000

func main() {
	var (
		fig      = flag.String("fig", "", "comma-separated figures to run: "+ids(experiments.Figures)+" (empty = all)")
		scale    = flag.Float64("scale", 1, "request-count scale factor for quick runs")
		mdPath   = flag.String("md", "", "also write all tables as markdown to this file")
		window   = flag.Int("window", 0, "CLIC window W override")
		decay    = flag.Float64("r", 0, "CLIC decay r override")
		workers  = flag.Int("workers", 0, "parallel trace generations and simulations (0 = all cores)")
		progress = flag.Bool("progress", false, "log each completed grid cell to stderr")
	)
	flag.Parse()
	if !(*scale > 0 && *scale <= maxScale) {
		fatal(fmt.Errorf("-scale %v: must be in (0, %d]", *scale, maxScale))
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers %d: must not be negative (0 = all cores)", *workers))
	}
	if err := cli.Check(core.Config{Window: *window, R: *decay}); err != nil {
		fatal(err)
	}

	env := experiments.NewEnv()
	env.Scale = *scale
	env.Window = *window
	env.R = *decay
	env.Workers = *workers
	if *progress {
		env.Progress = func(done, total int, r sim.Result) {
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s %s cache=%d hit=%.1f%%\n",
				done, total, r.Trace, r.Policy, r.CacheSize, 100*r.HitRatio())
		}
	}

	figs, err := selectFigures(*fig, experiments.Figures)
	if err != nil {
		fatal(err)
	}
	var traces []string
	for _, f := range figs {
		traces = append(traces, f.Traces...)
	}
	fmt.Fprintln(os.Stderr, "== generating traces ==")
	if err := env.Prefetch(traces); err != nil {
		fatal(err)
	}

	var md strings.Builder
	for _, f := range figs {
		fmt.Fprintf(os.Stderr, "== running experiment %s ==\n", f.ID)
		tables, err := f.Run(env)
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				fatal(err)
			}
			md.WriteString(t.Markdown())
		}
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "markdown written to %s\n", *mdPath)
	}
}

// selectFigures returns the figures the -fig argument names, in registry
// order; an empty argument selects them all. An id that names no figure is
// an error listing the valid ones — running nothing and exiting 0 would
// read as a successful regeneration.
func selectFigures(arg string, figs []experiments.Figure) ([]experiments.Figure, error) {
	if arg == "" {
		return figs, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(arg, ",") {
		id = strings.TrimSpace(id)
		if !slices.ContainsFunc(figs, func(f experiments.Figure) bool { return f.ID == id }) {
			return nil, fmt.Errorf("-fig: unknown figure %q (valid: %s)", id, ids(figs))
		}
		want[id] = true
	}
	var out []experiments.Figure
	for _, f := range figs {
		if want[f.ID] {
			out = append(out, f)
		}
	}
	return out, nil
}

// ids lists the figures' ids, comma-separated, in registry order.
func ids(figs []experiments.Figure) string {
	out := make([]string, len(figs))
	for i, f := range figs {
		out[i] = f.ID
	}
	return strings.Join(out, ",")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
