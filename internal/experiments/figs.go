package experiments

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Figure is one experiment of the evaluation: a table or figure of the
// paper, or one of the ablations beyond it.
type Figure struct {
	// ID names the figure to cmd/experiments -fig.
	ID string
	// Traces are the presets Run replays, generated up front in parallel
	// (Env.Prefetch) before any figure runs.
	Traces []string
	// Run regenerates the figure's tables.
	Run func(*Env) ([]*report.Table, error)
}

// The per-workload trace families (Figures 6/7/8; the TPC-C family also
// drives Figures 10–11 and the §8 extension).
var (
	tpccTraces  = []string{"DB2_C60", "DB2_C300", "DB2_C540"}
	tpchTraces  = []string{"DB2_H80", "DB2_H400", "DB2_H720"}
	mysqlTraces = []string{"MY_H65", "MY_H98"}
)

// Figures is every experiment, in the order cmd/experiments runs and prints
// them. It is the one list of figures: the command selects, prefetches and
// names them from it, and TestFigures runs each entry and checks that the
// traces it loads are exactly its Traces.
var Figures = []Figure{
	{"2", fig2Traces, (*Env).fig2},
	{"3", []string{fig3Trace}, (*Env).fig3},
	{"5", traceNames, (*Env).fig5},
	{"6", tpccTraces, sweepFamily("Figure 6", tpccTraces)},
	{"7", tpchTraces, sweepFamily("Figure 7", tpchTraces)},
	{"8", mysqlTraces, sweepFamily("Figure 8", mysqlTraces)},
	{"9", slices.Concat(tpccTraces, tpchTraces), (*Env).fig9},
	{"10", tpccTraces, (*Env).fig10},
	{"11", tpccTraces, (*Env).fig11},
	{"ablations", []string{ablationTrace}, (*Env).ablations},
	{"cluster", []string{clusterTrace}, (*Env).ablationCluster},
	{"extension", tpccTraces, (*Env).extensionGeneralize},
	{"zoo", []string{ablationTrace}, (*Env).policyZoo},
}

// traceNames lists the eight Figure-5 traces in paper order: the TPC-C,
// TPC-H and MySQL families.
var traceNames = slices.Concat(tpccTraces, tpchTraces, mysqlTraces)

// paperPolicies are the five policies of the paper's comparison (§6).
var paperPolicies = []string{"OPT", "LRU", "ARC", "TQ", "CLIC"}

// fig2Traces is one trace per hint vocabulary (Figure 2).
var fig2Traces = []string{"DB2_C60", "DB2_H80", "MY_H65"}

// fig2 regenerates the hint-type inventory (Figure 2): the hint types and
// value-domain cardinalities observed in the DB2 TPC-C, DB2 TPC-H, and
// MySQL TPC-H traces.
func (e *Env) fig2() ([]*report.Table, error) {
	var out []*report.Table
	for _, name := range fig2Traces {
		t, err := e.Trace(name)
		if err != nil {
			return nil, err
		}
		tbl := report.NewTable(
			fmt.Sprintf("Figure 2 — hint types in the %s trace", name),
			"hint type", "domain cardinality", "values (sample)")
		domains := t.Dict.Domains()
		types := make([]string, 0, len(domains))
		for typ := range domains {
			types = append(types, typ)
		}
		sort.Strings(types)
		for _, typ := range types {
			vals := domains[typ]
			sample := ""
			for i, v := range vals {
				if i == 4 {
					sample += ", …"
					break
				}
				if i > 0 {
					sample += ", "
				}
				sample += v
			}
			tbl.AddRow(typ, report.Num(len(vals)), sample)
		}
		out = append(out, tbl)
	}
	return out, nil
}

// fig3Trace is the hint-priority analysis trace (Figure 3).
const fig3Trace = "DB2_C60"

// fig3 regenerates the hint-set priority scatter (Figure 3): for the
// DB2_C60 trace, each distinct hint set's whole-trace frequency N(H) and
// caching priority Pr(H). The analysis uses CLIC's own statistics machinery
// with a window longer than the trace, so the numbers are exactly the
// beneﬁt/cost estimates of Equations 1–2.
func (e *Env) fig3() ([]*report.Table, error) {
	t, err := e.Trace(fig3Trace)
	if err != nil {
		return nil, err
	}
	c := core.New(core.Config{
		Capacity: sim.ClicCapacity(midCacheSize),
		Window:   t.Len() + 1, // never rotate: whole-trace statistics
	})
	for _, r := range t.Reqs {
		c.Access(r)
	}
	stats := c.WindowStats()
	tbl := report.NewTable(
		"Figure 3 — hint set priorities for the DB2_C60 trace (all hint sets with non-zero priority)",
		"hint set", "N(H)", "Nr(H)", "D(H)", "Pr(H)")
	shown := 0
	for _, hs := range stats {
		if hs.Pr == 0 {
			continue
		}
		shown++
		tbl.AddRow(t.Dict.Key(hs.Hint), report.Num(hs.N), report.Num(hs.Nr),
			fmt.Sprintf("%.0f", hs.D), report.Sci(hs.Pr))
	}
	tbl.AddNote("%d of %d observed hint sets have non-zero priority", shown, len(stats))
	return []*report.Table{tbl}, nil
}

// fig5 regenerates the trace summary table (Figure 5).
func (e *Env) fig5() ([]*report.Table, error) {
	tbl := report.NewTable("Figure 5 — I/O request traces",
		"trace", "kind", "DB size (pages)", "client buffer (pages)",
		"requests", "reads", "writes", "distinct hint sets", "distinct pages")
	for _, name := range traceNames {
		p, err := e.Preset(name)
		if err != nil {
			return nil, err
		}
		t, err := e.Trace(name)
		if err != nil {
			return nil, err
		}
		s := t.Stats()
		tbl.AddRow(name, string(p.Kind), report.Num(p.DBPages), report.Num(p.ClientBuffer),
			report.Num(s.Requests), report.Num(s.Reads), report.Num(s.Writes),
			report.Num(s.DistinctHints), report.Num(s.DistinctPages))
	}
	tbl.AddNote("sizes are the paper's divided by 10; ratios (client buffer / DB, server cache / DB) match the paper")
	return []*report.Table{tbl}, nil
}

// hitRatioSweep produces one hit-ratio-vs-cache-size table for a trace.
func (e *Env) hitRatioSweep(figure, traceName string, policies []string) (*report.Table, error) {
	t, err := e.Trace(traceName)
	if err != nil {
		return nil, err
	}
	sizes, err := e.ServerSizes(traceName)
	if err != nil {
		return nil, err
	}
	cols := append([]string{"server cache (pages)"}, policies...)
	tbl := report.NewTable(fmt.Sprintf("%s — read hit ratio, %s trace", figure, traceName), cols...)
	// Fan the whole policy × size grid across the engine's worker pool; the
	// results are identical to per-policy serial sweeps.
	results, err := engine.Grid(policies, sizes, t, e.clicConfig(), e.opts())
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		row := []string{report.Num(size)}
		for _, pol := range policies {
			row = append(row, report.Pct(results[pol][i].HitRatio()))
		}
		tbl.AddRow(row...)
	}
	return tbl, nil
}

// sweepFamily returns the Run of a policy comparison (Figures 6–8): for
// each trace of the family, read hit ratio as a function of server cache
// size for OPT, LRU, ARC, TQ and CLIC.
func sweepFamily(figure string, names []string) func(*Env) ([]*report.Table, error) {
	return func(e *Env) ([]*report.Table, error) {
		var out []*report.Table
		for _, name := range names {
			tbl, err := e.hitRatioSweep(figure, name, paperPolicies)
			if err != nil {
				return nil, err
			}
			out = append(out, tbl)
		}
		return out, nil
	}
}

// fig9Ks is the top-k sweep of Figure 9.
var fig9Ks = []int{1, 2, 5, 10, 20, 50, 100}

// fig9 regenerates the top-k hint filtering experiment (Figure 9): CLIC's
// read hit ratio as a function of k, on the DB2 TPC-C and TPC-H traces with
// a mid-size (paper: 180K-page; scaled: 18K-page) server cache. The final
// row tracks all hint sets exactly (k = ∞).
func (e *Env) fig9() ([]*report.Table, error) {
	var out []*report.Table
	for _, family := range [][]string{tpccTraces, tpchTraces} {
		cols := append([]string{"k"}, family...)
		tbl := report.NewTable(
			fmt.Sprintf("Figure 9 — top-k hint filtering, %d-page server cache", midCacheSize), cols...)
		rows := make(map[int][]string, len(fig9Ks)+1)
		for _, k := range fig9Ks {
			rows[k] = []string{report.Num(k)}
		}
		rows[0] = []string{"all"}
		ks := append(append([]int{}, fig9Ks...), 0)
		var jobs []engine.Job
		var jobKs []int
		for _, name := range family {
			t, err := e.Trace(name)
			if err != nil {
				return nil, err
			}
			for _, k := range ks {
				cfg := e.clicConfig()
				cfg.TopK = k
				cfg.Capacity = sim.ClicCapacity(midCacheSize)
				jobs = append(jobs, engine.Job{New: clicJob(cfg), Trace: t})
				jobKs = append(jobKs, k)
			}
		}
		for i, res := range engine.Run(jobs, e.opts()) {
			rows[jobKs[i]] = append(rows[jobKs[i]], report.Pct(res.HitRatio()))
		}
		for _, k := range fig9Ks {
			tbl.AddRow(rows[k]...)
		}
		tbl.AddRow(rows[0]...)
		out = append(out, tbl)
	}
	return out, nil
}

// fig10Ts is the noise sweep of Figure 10.
var fig10Ts = []int{0, 1, 2, 3}

// fig10 regenerates the noise-hint experiment (Figure 10): T synthetic hint
// types (domain 10, Zipf z=1) are appended to every request of the DB2
// TPC-C traces; CLIC tracks k=100 hint sets in an 18K-page cache.
func (e *Env) fig10() ([]*report.Table, error) {
	names := tpccTraces
	cols := append([]string{"T (noise hint types)"}, names...)
	tbl := report.NewTable(
		fmt.Sprintf("Figure 10 — effect of noise hint types, k=100, %d-page server cache", midCacheSize), cols...)
	rows := make([][]string, len(fig10Ts))
	for i, T := range fig10Ts {
		rows[i] = []string{report.Num(T)}
	}
	// One engine batch per base trace: the noisy copies duplicate the full
	// request array, so keeping only one trace's T-sweep alive at a time
	// bounds peak memory while the sweep itself still runs in parallel.
	for _, name := range names {
		base, err := e.Trace(name)
		if err != nil {
			return nil, err
		}
		jobs := make([]engine.Job, len(fig10Ts))
		for i, T := range fig10Ts {
			noisy, err := trace.WithNoise(base, trace.DefaultNoise(T, 7700+int64(T)))
			if err != nil {
				return nil, err
			}
			cfg := e.clicConfig()
			cfg.TopK = 100
			cfg.Capacity = sim.ClicCapacity(midCacheSize)
			jobs[i] = engine.Job{New: clicJob(cfg), Trace: noisy}
		}
		for i, res := range engine.Run(jobs, e.opts()) {
			rows[i] = append(rows[i], report.Pct(res.HitRatio()))
		}
	}
	for _, row := range rows {
		tbl.AddRow(row...)
	}
	return []*report.Table{tbl}, nil
}

// clicJob adapts a CLIC configuration to an engine job constructor.
func clicJob(cfg core.Config) func() policy.Policy {
	return func() policy.Policy { return core.New(cfg) }
}

// fig11 regenerates the multi-client experiment (Figure 11): the DB2 TPC-C
// traces interleaved round-robin share one 18K-page CLIC cache (k=100);
// the comparison gives each full-length trace a private 6K-page CLIC cache
// (an equal partition of the shared cache).
func (e *Env) fig11() ([]*report.Table, error) {
	names := tpccTraces
	traces := make([]*trace.Trace, len(names))
	for i, name := range names {
		t, err := e.Trace(name)
		if err != nil {
			return nil, err
		}
		traces[i] = t
	}
	merged, err := trace.Interleave("TPCC_3CLIENTS", traces...)
	if err != nil {
		return nil, err
	}
	cfg := e.clicConfig()
	cfg.TopK = 100
	cfg.Capacity = sim.ClicCapacity(midCacheSize)
	partition := midCacheSize / len(names)
	// The shared-cache run and the three private-cache runs are four
	// independent cells; fan them out together.
	jobs := []engine.Job{{New: clicJob(cfg), Trace: merged}}
	for _, t := range traces {
		pcfg := e.clicConfig()
		pcfg.TopK = 100
		pcfg.Capacity = sim.ClicCapacity(partition)
		jobs = append(jobs, engine.Job{New: clicJob(pcfg), Trace: t})
	}
	all := engine.Run(jobs, e.opts())
	shared, private := all[0], all[1:]

	tbl := report.NewTable(
		fmt.Sprintf("Figure 11 — three clients: %d-page shared cache vs 3 × %d-page private caches",
			midCacheSize, partition),
		"trace", fmt.Sprintf("%d-page shared cache", midCacheSize),
		fmt.Sprintf("%d-page private cache", partition))
	var privReads, privHits uint64
	for i, name := range names {
		tbl.AddRow(name, report.Pct(shared.PerClient[i].HitRatio()), report.Pct(private[i].HitRatio()))
		privReads += private[i].Reads
		privHits += private[i].ReadHits
	}
	overallPriv := 0.0
	if privReads > 0 {
		overallPriv = float64(privHits) / float64(privReads)
	}
	tbl.AddRow("overall", report.Pct(shared.HitRatio()), report.Pct(overallPriv))
	tbl.AddNote("shared-cache column: per-client hit ratios within the interleaved trace (truncated to the shortest input)")
	return []*report.Table{tbl}, nil
}
