package experiments

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/hint"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testEnv returns a tiny-scale environment.
func testEnv() *Env {
	e := NewEnv()
	e.Scale = 0.01 // presets floor at 10K requests
	e.Window = 2000
	return e
}

func TestTraceGenerationAndCaching(t *testing.T) {
	e := testEnv()
	a, err := e.Trace("DB2_C60")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Trace("DB2_C60")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second Trace call should return the memoised trace")
	}
	if a.Len() < 10000 {
		t.Errorf("scaled trace too short: %d", a.Len())
	}
	if _, err := e.Trace("NOPE"); err == nil {
		t.Error("unknown trace should error")
	}
}

// TestFigures runs every registry entry on a fresh environment. Each must
// produce tables with rows, load exactly the traces it declares (so the
// prefetch list cannot drift from what Run replays), and keep the shape
// its figure has in the paper.
func TestFigures(t *testing.T) {
	count := func(t *testing.T, tables []*report.Table, n int) {
		t.Helper()
		if len(tables) != n {
			t.Fatalf("%d tables, want %d", len(tables), n)
		}
	}
	sweep := func(t *testing.T, tables []*report.Table, traces []string) {
		count(t, tables, len(traces))
		for i, tbl := range tables {
			sizes, err := testEnv().ServerSizes(traces[i])
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) != len(sizes) || len(tbl.Columns) != len(paperPolicies)+1 {
				t.Errorf("%s: %d rows × %d columns, want %d cache sizes × %d",
					tbl.Title, len(tbl.Rows), len(tbl.Columns), len(sizes), len(paperPolicies)+1)
			}
		}
	}
	shapes := map[string]func(t *testing.T, tables []*report.Table){
		"2": func(t *testing.T, tables []*report.Table) {
			count(t, tables, len(fig2Traces))
			if !strings.Contains(tables[0].String(), "reqtype") {
				t.Error("missing the reqtype hint domain")
			}
		},
		"3": func(t *testing.T, tables []*report.Table) {
			count(t, tables, 1)
			if got := tables[0].Columns[4]; got != "Pr(H)" {
				t.Errorf("column 5 = %q", got)
			}
		},
		"5": func(t *testing.T, tables []*report.Table) {
			count(t, tables, 1)
			if len(tables[0].Rows) != len(traceNames) {
				t.Fatalf("%d rows, want %d", len(tables[0].Rows), len(traceNames))
			}
			for i, name := range traceNames {
				if tables[0].Rows[i][0] != name {
					t.Errorf("row %d is %q, want %q", i, tables[0].Rows[i][0], name)
				}
			}
		},
		"6": func(t *testing.T, tables []*report.Table) { sweep(t, tables, tpccTraces) },
		"7": func(t *testing.T, tables []*report.Table) { sweep(t, tables, tpchTraces) },
		"8": func(t *testing.T, tables []*report.Table) { sweep(t, tables, mysqlTraces) },
		"9": func(t *testing.T, tables []*report.Table) {
			count(t, tables, 2)
			for _, tbl := range tables {
				if len(tbl.Rows) != len(fig9Ks)+1 {
					t.Errorf("%d rows, want %d (k values + all)", len(tbl.Rows), len(fig9Ks)+1)
				}
			}
		},
		"10": func(t *testing.T, tables []*report.Table) {
			count(t, tables, 1)
			if len(tables[0].Rows) != len(fig10Ts) {
				t.Errorf("%d rows, want %d", len(tables[0].Rows), len(fig10Ts))
			}
		},
		"11": func(t *testing.T, tables []*report.Table) {
			count(t, tables, 1)
			// Three clients plus the overall row.
			if rows := tables[0].Rows; len(rows) != 4 || rows[3][0] != "overall" {
				t.Errorf("rows = %v, want 3 clients then overall", rows)
			}
		},
		"ablations": func(t *testing.T, tables []*report.Table) { count(t, tables, 3) },
		"zoo": func(t *testing.T, tables []*report.Table) {
			count(t, tables, 1)
			if len(tables[0].Rows) != len(sim.PolicyNames) {
				t.Errorf("%d rows, want %d policies", len(tables[0].Rows), len(sim.PolicyNames))
			}
		},
	}
	ids := map[string]bool{}
	for _, f := range Figures {
		if ids[f.ID] {
			t.Errorf("figure id %q is registered twice", f.ID)
		}
		ids[f.ID] = true
		t.Run(f.ID, func(t *testing.T) {
			e := testEnv()
			tables, err := f.Run(e)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("%s: no rows", tbl.Title)
				}
			}
			loaded := slices.Sorted(maps.Keys(e.traces))
			declared := slices.Compact(slices.Sorted(slices.Values(f.Traces)))
			if !slices.Equal(loaded, declared) {
				t.Errorf("Run loaded traces %v, the entry declares %v", loaded, declared)
			}
			if check := shapes[f.ID]; check != nil {
				check(t, tables)
			}
		})
	}
}

// TestPrefetch checks that prefetched traces are the ones Trace returns
// afterwards, bit-identical (requests and hint dictionary) to a direct
// workload.Generate at any worker count, and that an unknown name errors.
func TestPrefetch(t *testing.T) {
	names := []string{"DB2_C60", "MY_H98", "DB2_H80", "DB2_C60"}
	wants := make(map[string]*trace.Trace)
	for _, name := range names {
		p, err := testEnv().Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if wants[name], err = workload.Generate(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 3} {
		e := testEnv()
		e.Workers = workers
		if err := e.Prefetch(names); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, name := range names {
			got := e.traces[name]
			if again, err := e.Trace(name); err != nil || again != got {
				t.Fatalf("workers=%d %s: Trace after Prefetch did not return the prefetched trace (%v)", workers, name, err)
			}
			want := wants[name]
			if got.Len() != want.Len() || got.Dict.Len() != want.Dict.Len() {
				t.Fatalf("workers=%d %s: %d requests/%d hint sets, want %d/%d",
					workers, name, got.Len(), got.Dict.Len(), want.Len(), want.Dict.Len())
			}
			for i := range want.Reqs {
				if got.Reqs[i] != want.Reqs[i] {
					t.Fatalf("workers=%d %s: request %d differs", workers, name, i)
				}
			}
			for id := 0; id < want.Dict.Len(); id++ {
				if got.Dict.Key(hint.ID(id)) != want.Dict.Key(hint.ID(id)) {
					t.Fatalf("workers=%d %s: hint %d differs", workers, name, id)
				}
			}
		}
	}
	if err := testEnv().Prefetch([]string{"DB2_C60", "NOPE"}); err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Errorf("Prefetch error = %v, want one naming NOPE", err)
	}
}
