// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§6), one benchmark per artifact, at a reduced request scale
// so the whole suite completes in minutes:
//
//	go test -bench=. -benchmem
//
// Run `go run ./cmd/experiments` for the full-scale versions. Each bench
// logs its table (visible with -v) and reports the headline hit ratio as a
// custom metric, so regressions in the reproduced *shape* show up in plain
// benchmark diffs.
package repro_test

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sim"
)

// benchScale reduces every trace's request count; 0.1 keeps each figure's
// bench in the tens of seconds.
const benchScale = 0.1

var (
	envOnce  sync.Once
	benchEnv *experiments.Env
)

func env() *experiments.Env {
	envOnce.Do(func() {
		benchEnv = experiments.NewEnv("traces")
		benchEnv.Scale = benchScale
	})
	return benchEnv
}

func logTables(b *testing.B, tables []*report.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range tables {
		b.Log("\n" + t.String())
	}
}

func one(t *report.Table, err error) ([]*report.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*report.Table{t}, nil
}

// lastPct extracts the numeric value of the last cell of the last row,
// e.g. "63.6%" → 63.6, used as the bench's reported metric.
func lastPct(tables []*report.Table) float64 {
	if len(tables) == 0 {
		return 0
	}
	t := tables[len(tables)-1]
	if len(t.Rows) == 0 {
		return 0
	}
	row := t.Rows[len(t.Rows)-1]
	cell := strings.TrimSpace(strings.TrimSuffix(row[len(row)-1], "%"))
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0
	}
	return v
}

// BenchmarkFig2HintDomains regenerates the hint-type inventory (Figure 2).
func BenchmarkFig2HintDomains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig2()
		logTables(b, tables, err)
	}
}

// BenchmarkFig3HintPriorities regenerates the hint-set priority analysis of
// Figure 3 (priority vs frequency for every hint set in DB2_C60).
func BenchmarkFig3HintPriorities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().Fig3())
		logTables(b, tables, err)
	}
}

// BenchmarkFig5TraceTable regenerates the trace summary (Figure 5).
func BenchmarkFig5TraceTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().Fig5())
		logTables(b, tables, err)
	}
}

// BenchmarkFig6DB2TPCC regenerates the DB2 TPC-C policy comparison
// (Figure 6): OPT, LRU, ARC, TQ, CLIC across server cache sizes.
func BenchmarkFig6DB2TPCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig6()
		logTables(b, tables, err)
		b.ReportMetric(lastPct(tables), "CLIC-hit-%")
	}
}

// BenchmarkFig7DB2TPCH regenerates the DB2 TPC-H comparison (Figure 7).
func BenchmarkFig7DB2TPCH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig7()
		logTables(b, tables, err)
		b.ReportMetric(lastPct(tables), "CLIC-hit-%")
	}
}

// BenchmarkFig8MySQLTPCH regenerates the MySQL TPC-H comparison (Figure 8).
func BenchmarkFig8MySQLTPCH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig8()
		logTables(b, tables, err)
		b.ReportMetric(lastPct(tables), "CLIC-hit-%")
	}
}

// BenchmarkFig9TopK regenerates the top-k hint filtering experiment
// (Figure 9).
func BenchmarkFig9TopK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig9()
		logTables(b, tables, err)
	}
}

// BenchmarkFig10Noise regenerates the noise-hint robustness experiment
// (Figure 10).
func BenchmarkFig10Noise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().Fig10())
		logTables(b, tables, err)
	}
}

// BenchmarkFig11MultiClient regenerates the multi-client experiment
// (Figure 11): shared vs partitioned server cache.
func BenchmarkFig11MultiClient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().Fig11())
		logTables(b, tables, err)
		b.ReportMetric(lastPct(tables), "overall-hit-%")
	}
}

// BenchmarkAblationDecay sweeps CLIC's decay parameter r (Equation 3).
func BenchmarkAblationDecay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().AblationR())
		logTables(b, tables, err)
	}
}

// BenchmarkAblationWindow sweeps CLIC's statistics window W (§3.2).
func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().AblationW())
		logTables(b, tables, err)
	}
}

// BenchmarkAblationOutqueue sweeps the outqueue size (§3.1).
func BenchmarkAblationOutqueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().AblationOutqueue())
		logTables(b, tables, err)
	}
}

// BenchmarkPolicyZoo compares all ten implemented policies on DB2_C300.
func BenchmarkPolicyZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().PolicyZoo("DB2_C300", experiments.MidCacheSize))
		logTables(b, tables, err)
	}
}

// BenchmarkExtensionGeneralize runs the §8 future-work extension: the
// Figure-10 noise experiment with hint-set generalization in front of CLIC.
func BenchmarkExtensionGeneralize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().ExtensionGeneralize())
		logTables(b, tables, err)
	}
}

// benchSweep runs the paper's five-policy comparison grid on DB2_C300:
// serially via sim.Sweep when serial is set, otherwise through the
// internal/engine worker pool at GOMAXPROCS. The two produce identical
// results (see internal/engine's golden test); comparing their ns/op is the
// multi-core speedup of the parallel experiment engine.
func benchSweep(b *testing.B, serial bool) {
	e := env()
	t, err := e.Trace("DB2_C300")
	if err != nil {
		b.Fatal(err)
	}
	sizes, err := e.ServerSizes("DB2_C300")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Window: 10000} // scaled like the figure benches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var hits float64
		if serial {
			for _, pol := range experiments.PaperPolicies {
				sweep := sim.Sweep(sim.Constructor(pol, t, cfg), t, sizes)
				hits = sweep[len(sweep)-1].HitRatio()
			}
		} else {
			grid, err := engine.Grid(experiments.PaperPolicies, sizes, t, cfg, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sweep := grid[experiments.PaperPolicies[len(experiments.PaperPolicies)-1]]
			hits = sweep[len(sweep)-1].HitRatio()
		}
		b.ReportMetric(100*hits, "CLIC-hit-%")
	}
}

// BenchmarkSweepSerial is the serial baseline for the engine speedup.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, true) }

// BenchmarkSweepParallel is the same grid fanned across all cores.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, false) }
