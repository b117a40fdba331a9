package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// noisyHostShare is how far the calibration kernel may differ between two
// result files before the whole comparison is marked noisy-host.
const noisyHostShare = 0.05

// benchmarkSpec is the part of BENCHMARK.json that -compare and the tests
// read. PerLayer entries carry no bound.
type benchmarkSpec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
	PerLayer  []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkSpec() (*benchmarkSpec, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func loadResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares candidate b against baseline a for one metric. A
// metric whose inter-quartile spread, on either side, is wider than the
// bound cannot resolve a change of the bound's size: it is unresolved,
// not unchanged. Otherwise it has regressed when b's median is worse
// than a's by more than the bound.
func verdict(a, b summary, better string, bound float64) string {
	if a.spread() > bound || b.spread() > bound {
		return verdictUnresolved
	}
	if worseBy(a.Median, b.Median, better) > bound {
		return verdictRegressed
	}
	return verdictOK
}

// worseBy is how much worse b is than a, as a share of a; negative when
// b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// runCompare prints the comparison of two result files and returns the
// exit code: 1 when a metric regressed or a deterministic count differs.
func runCompare(pathA, pathB string, w io.Writer) int {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadResultFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadResultFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareFiles(spec, a, b, w)
}

func compareFiles(spec *benchmarkSpec, a, b *resultFile, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "A: seed %d, %d requests, GOMAXPROCS %d   B: seed %d, %d requests, GOMAXPROCS %d\n",
		a.Seed, a.Reqs, a.Gomaxprocs, b.Seed, b.Reqs, b.Gomaxprocs)
	drift := worseBy(a.Calib.Median, b.Calib.Median, "lower")
	fmt.Fprintf(w, "host.calib_ns_per_op  A %.3f  B %.3f  (%+.1f%%)\n", a.Calib.Median, b.Calib.Median, 100*drift)
	if math.Abs(drift) > noisyHostShare {
		fmt.Fprintf(w, "noisy-host: the calibration kernel differs by more than %.0f%% between the files; verdicts below compare two hosts, not two programs\n", 100*noisyHostShare)
	}
	fmt.Fprintf(w, "%-15s %-15s %14s %14s %8s %7s %7s %6s  %s\n", "workload", "metric", "A median", "B median", "worse", "A iqr", "B iqr", "bound", "verdict")
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, okA := wa.EndToEnd[m.Name]
			mb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(ma.summary, mb.summary, m.Better, m.Bound)
			if v == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(w, "%-15s %-15s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%% %5.1f%%  %s\n", wl.Name, m.Name,
				ma.Median, mb.Median, 100*worseBy(ma.Median, mb.Median, m.Better),
				100*ma.spread(), 100*mb.spread(), 100*m.Bound, v)
		}
		// The serial simulations are deterministic: on the same inputs the
		// hit count of every round must repeat exactly.
		if (wl.Name == "sim_serial" || wl.Name == "sim_fits") && a.Seed == b.Seed && a.Reqs == b.Reqs {
			n := min(len(wa.HitCounts), len(wb.HitCounts))
			if slices.Equal(wa.HitCounts[:n], wb.HitCounts[:n]) {
				fmt.Fprintf(w, "%-15s hit counts identical over %d rounds\n", wl.Name, n)
			} else {
				fmt.Fprintf(w, "%-15s hit counts DIFFER on the same inputs: the simulation is not deterministic\n", wl.Name)
				code = 1
			}
		}
	}
	return code
}
