package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hintproj"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Ablation experiments beyond the paper's figures: they vary CLIC's own
// parameters (r, W, Noutq) and compare the full policy zoo, quantifying how
// much each mechanism contributes. Like the figures, each sweep fans its
// independent runs across the engine's worker pool.

// ablationTrace drives the r/W/outqueue ablations and the policy zoo.
const ablationTrace = "DB2_C300"

// ablations runs the r, W and outqueue sweeps on the ablation trace.
func (e *Env) ablations() ([]*report.Table, error) {
	t, err := e.Trace(ablationTrace)
	if err != nil {
		return nil, err
	}
	return []*report.Table{e.ablationR(t), e.ablationW(t), e.ablationOutqueue(t)}, nil
}

// ablationR varies the exponential decay parameter r (Equation 3) on the
// DB2_C300 trace with a mid-size cache. The paper fixes r = 1; this table
// shows how much smoothing older windows helps or hurts.
func (e *Env) ablationR(t *trace.Trace) *report.Table {
	tbl := report.NewTable(
		fmt.Sprintf("Ablation — decay parameter r, DB2_C300, %d-page cache", midCacheSize),
		"r", "read hit ratio")
	rs := []float64{1.0, 0.75, 0.5, 0.25, 0.1}
	jobs := make([]engine.Job, len(rs))
	for i, r := range rs {
		cfg := e.clicConfig()
		cfg.R = r
		cfg.Capacity = sim.ClicCapacity(midCacheSize)
		jobs[i] = engine.Job{New: clicJob(cfg), Trace: t}
	}
	for i, res := range engine.Run(jobs, e.opts()) {
		tbl.AddRow(fmt.Sprintf("%.2f", rs[i]), report.Pct(res.HitRatio()))
	}
	return tbl
}

// ablationW varies the statistics window W (§3.2) on the DB2_C300 trace.
func (e *Env) ablationW(t *trace.Trace) *report.Table {
	tbl := report.NewTable(
		fmt.Sprintf("Ablation — window size W, DB2_C300, %d-page cache", midCacheSize),
		"W (requests)", "windows completed", "read hit ratio")
	ws := []int{12500, 25000, 50000, 100000, 200000, 400000}
	jobs := make([]engine.Job, len(ws))
	for i, w := range ws {
		cfg := e.clicConfig()
		cfg.Window = w
		cfg.Capacity = sim.ClicCapacity(midCacheSize)
		jobs[i] = engine.Job{New: clicJob(cfg), Trace: t}
	}
	for i, res := range engine.Run(jobs, e.opts()) {
		// A window completes every W requests, so the count follows from
		// the trace length.
		tbl.AddRow(report.Num(ws[i]), report.Num(t.Len()/ws[i]), report.Pct(res.HitRatio()))
	}
	return tbl
}

// ablationOutqueue varies the outqueue size (§3.1) as a multiple of the
// cache capacity; the paper uses 5×. NoOutqueue disables re-reference
// tracking for uncached pages entirely, showing why the outqueue exists.
func (e *Env) ablationOutqueue(t *trace.Trace) *report.Table {
	tbl := report.NewTable(
		fmt.Sprintf("Ablation — outqueue size, DB2_C300, %d-page cache", midCacheSize),
		"Noutq (per cache page)", "read hit ratio")
	mults := []int{-1, 1, 2, 5, 10}
	labels := make([]string, len(mults))
	jobs := make([]engine.Job, len(mults))
	for i, mult := range mults {
		cfg := e.clicConfig()
		cfg.Capacity = sim.ClicCapacity(midCacheSize)
		labels[i] = report.Num(mult)
		if mult < 0 {
			cfg.Noutq = core.NoOutqueue
			labels[i] = "0 (disabled)"
		} else {
			cfg.Noutq = mult * cfg.Capacity
		}
		jobs[i] = engine.Job{New: clicJob(cfg), Trace: t}
	}
	for i, res := range engine.Run(jobs, e.opts()) {
		tbl.AddRow(labels[i], report.Pct(res.HitRatio()))
	}
	return tbl
}

// policyZoo compares every implemented policy — the paper's five plus the
// related-work baselines — on the ablation trace at the mid-size cache.
func (e *Env) policyZoo() ([]*report.Table, error) {
	t, err := e.Trace(ablationTrace)
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Policy zoo — %s trace, %d-page cache", ablationTrace, midCacheSize),
		"policy", "read hit ratio")
	results, err := engine.Grid(sim.PolicyNames, []int{midCacheSize}, t, e.clicConfig(), e.opts())
	if err != nil {
		return nil, err
	}
	for _, name := range sim.PolicyNames {
		tbl.AddRow(name, report.Pct(results[name][0].HitRatio()))
	}
	return []*report.Table{tbl}, nil
}

// extensionGeneralize evaluates the paper's §8 future-work extension
// (implemented in internal/hintproj): hint-set generalization by selecting
// the informative hint types and projecting hint sets onto them. It reruns
// the Figure-10 noise experiment with generalization in front of CLIC.
func (e *Env) extensionGeneralize() ([]*report.Table, error) {
	names := tpccTraces
	cols := append([]string{"T (noise hint types)"}, names...)
	tbl := report.NewTable(
		fmt.Sprintf("Extension (§8) — Figure 10 with hint generalization, k=100, %d-page cache", midCacheSize), cols...)
	rows := make([][]string, len(fig10Ts))
	for i, T := range fig10Ts {
		rows[i] = []string{report.Num(T)}
	}
	// As in fig10, batch per base trace so only one trace's projected
	// copies (full request-array duplicates) are alive at a time.
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
			sample := noisy.Len() / 4
			projected, _ := hintproj.Generalize(noisy, midCacheSize, sample, 5)
			cfg := e.clicConfig()
			cfg.TopK = 100
			cfg.Capacity = sim.ClicCapacity(midCacheSize)
			jobs[i] = engine.Job{New: clicJob(cfg), Trace: projected}
		}
		for i, res := range engine.Run(jobs, e.opts()) {
			rows[i] = append(rows[i], report.Pct(res.HitRatio()))
		}
	}
	for _, row := range rows {
		tbl.AddRow(row...)
	}
	tbl.AddNote("compare against Figure 10: generalization selects the informative hint types from a 25%% sample and discards the synthetic noise types")
	return []*report.Table{tbl}, nil
}
