package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// resultMetrics runs a small benchmark over every workload and returns the
// result line's metrics, which carry the workload as a prefix.
func resultMetrics(t *testing.T, trace int) (map[string]struct{ Value float64 }, *report) {
	t.Helper()
	rep, err := run(options{workload: "all", seed: 11, seconds: 1, trace: trace, reqs: 40000, rounds: 2}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range rep.states {
		for _, p := range ws.problems {
			t.Errorf("%s: %s", ws.def.name, p)
		}
	}
	if !rep.correct() {
		t.Errorf("run reported incorrect: %v", rep.problems)
	}
	var line struct {
		Correct   bool
		Attempted uint64
		Failed    uint64
		Metrics   map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(rep.resultLine()), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Errorf("result line: correct %v, attempted %d, failed %d", line.Correct, line.Attempted, line.Failed)
	}
	return line.Metrics, rep
}

// TestSmoke runs every workload untraced and traced and checks that each
// workload and metric BENCHMARK.json declares is emitted under a valid
// name, and that no request went unanswered.
func TestSmoke(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloadDefs[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark prints %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}

	untraced, rep := resultMetrics(t, 0)
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is not a valid name", w.Name)
		}
		for _, m := range spec.EndToEnd {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is not a valid name", m.Name)
			}
			v, ok := untraced[w.Name+"."+m.Name]
			if !ok {
				t.Errorf("%s: end-to-end metric %s not emitted", w.Name, m.Name)
			} else if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want above zero", w.Name, m.Name, v.Value)
			}
		}
		if got := untraced[w.Name+".answered_pct"].Value; got != 100 {
			t.Errorf("%s: answered_pct = %v, want 100", w.Name, got)
		}
	}
	if got, want := len(untraced), len(spec.Workloads)*len(spec.EndToEnd); got != want {
		t.Errorf("untraced run emitted %d metrics, want %d", got, want)
	}
	// The same inputs give the serial simulations the same hit counts.
	again, err := run(options{workload: "sim_serial", seed: 11, seconds: 1, reqs: 40000, rounds: 2}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	first := rep.file.Workloads["sim_serial"].HitCounts
	if second := again.file.Workloads["sim_serial"].HitCounts; len(first) != 2 || len(second) != 2 || first[0] != second[0] || first[1] != second[1] {
		t.Errorf("sim_serial hit counts differ between two runs of the same seed: %v then %v", first, second)
	}

	traced, _ := resultMetrics(t, 1)
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, m := range spec.PerLayer {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is not a valid name", m.Name)
			}
			if _, ok := traced[w.Name+"."+m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", w.Name, m.Name)
			}
		}
		if st, err := os.Stat(filepath.Join(root, "bench", "out", "spans-"+w.Name+".jsonl")); err != nil || st.Size() == 0 {
			t.Errorf("%s: no span file written (%v)", w.Name, err)
		}
	}
	if got, want := len(traced), len(spec.Workloads)*len(spec.PerLayer); got != want {
		t.Errorf("traced run emitted %d metrics, want %d", got, want)
	}
	for _, m := range []string{"serve_loopback.netclient.batches", "cluster_routed.cluster.subbatches_per_batch", "sim_serial.core.access_ns_per_req", "serve_lockstep.wire.frames_per_kreq"} {
		if traced[m].Value <= 0 {
			t.Errorf("traced metric %s = %v, want above zero", m, traced[m].Value)
		}
	}
}
