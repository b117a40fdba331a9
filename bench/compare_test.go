package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.995, Q3: m * 1.005, N: 12} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.9, Q3: m * 1.1, N: 12} }
	for _, tc := range []struct {
		name   string
		a, b   summary
		better string
		bound  float64
		want   string
	}{
		{"same", tight(100), tight(100), "higher", 0.07, verdictOK},
		{"inside the bound", tight(100), tight(94), "higher", 0.07, verdictOK},
		{"throughput fell past the bound", tight(100), tight(92), "higher", 0.07, verdictRegressed},
		{"throughput rose", tight(100), tight(130), "higher", 0.07, verdictOK},
		{"latency rose past the bound", tight(100), tight(111), "lower", 0.10, verdictRegressed},
		{"latency fell", tight(100), tight(50), "lower", 0.10, verdictOK},
		{"baseline too noisy to tell", wide(100), tight(80), "higher", 0.07, verdictUnresolved},
		{"candidate too noisy to tell", tight(100), wide(100), "higher", 0.07, verdictUnresolved},
		{"zero bound, equal", tight(100), tight(100), "higher", 0.02, verdictOK},
	} {
		if got := verdict(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func compareFixture(reqsPerS float64, calib float64, hits []uint64) *resultFile {
	return &resultFile{
		Seed: 7, Reqs: 1000, Gomaxprocs: 2,
		Calib: summary{Median: calib, Q1: calib, Q3: calib, N: 12},
		Workloads: map[string]*workloadResult{
			"sim_serial": {
				EndToEnd: map[string]metricResult{
					"reqs_per_s": {summary: summary{Median: reqsPerS, Q1: reqsPerS * 0.99, Q3: reqsPerS * 1.01, N: 12}, Unit: "1/s"},
				},
				HitCounts: hits,
			},
		},
	}
}

func TestCompareFiles(t *testing.T) {
	// A spec of its own, so the verdicts do not move with BENCHMARK.json.
	spec := &benchmarkSpec{
		Workloads: []specWorkload{{Name: "sim_serial"}},
		EndToEnd:  []specMetric{{Name: "reqs_per_s", Unit: "1/s", Better: "higher", Bound: 0.07}},
	}
	base := compareFixture(1e6, 20, []uint64{5, 6, 7})

	var out bytes.Buffer
	if code := compareFiles(spec, base, compareFixture(0.99e6, 20.2, []uint64{5, 6, 7}), &out); code != 0 {
		t.Errorf("an unchanged run compared as exit %d:\n%s", code, out.String())
	}
	if s := out.String(); !strings.Contains(s, "hit counts identical over 3 rounds") || strings.Contains(s, "noisy-host") {
		t.Errorf("unchanged run: unexpected report:\n%s", s)
	}

	out.Reset()
	if code := compareFiles(spec, base, compareFixture(0.8e6, 20, []uint64{5, 6, 7}), &out); code != 1 {
		t.Errorf("a 20%% throughput drop compared as exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a 20%% throughput drop was not reported as regressed:\n%s", out.String())
	}

	out.Reset()
	compareFiles(spec, base, compareFixture(1e6, 22, []uint64{5, 6, 7}), &out)
	if !strings.Contains(out.String(), "noisy-host") {
		t.Errorf("a 10%% calibration drift was not marked noisy-host:\n%s", out.String())
	}

	out.Reset()
	if code := compareFiles(spec, base, compareFixture(1e6, 20, []uint64{5, 6, 8}), &out); code != 1 {
		t.Errorf("differing hit counts on the same inputs compared as exit %d:\n%s", code, out.String())
	}
}
