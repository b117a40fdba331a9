package main

import (
	"math"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([...], n=4) and statistics.median of the same
	// ten values, computed with Python 3.
	xs := []float64{9, 2, 7, 4, 10, 1, 8, 3, 6, 5}
	s := summarize(xs)
	if s.Median != 5.5 || s.Q1 != 2.75 || s.Q3 != 8.25 || s.N != 10 {
		t.Fatalf("summarize = %+v, want median 5.5, q1 2.75, q3 8.25, n 10", s)
	}
	if got, want := s.spread(), 1.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	if xs[0] != 9 {
		t.Fatal("summarize reordered its input")
	}
}

func TestSummarizeSmallSamples(t *testing.T) {
	if s := summarize(nil); s != (summary{}) {
		t.Fatalf("summarize(nil) = %+v, want zero", s)
	}
	if s := summarize([]float64{3}); s.Median != 3 || s.Q1 != 3 || s.Q3 != 3 || s.spread() != 0 {
		t.Fatalf("summarize of one sample = %+v, want all 3", s)
	}
	if s := summarize([]float64{1, 2, 4}); s.Median != 2 || s.Q1 != 1 || s.Q3 != 4 {
		t.Fatalf("summarize of three samples = %+v, want 2, 1, 4", s)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // 9.5 samples beyond the median
		{20, 0.50, true},
		{99, 0.50, true},
		{100, 0.90, true},
		{199, 0.90, true},
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	if supports(999, 0.99) || !supports(1000, 0.99) {
		t.Error("p99 needs exactly 1000 samples to have ten beyond it")
	}
}

func TestQuantileSorted(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ q, want float64 }{{0.50, 500}, {0.99, 990}, {1, 1000}, {0, 1}} {
		if got := quantileSorted(xs, tc.q); got != tc.want {
			t.Errorf("quantileSorted(1..1000, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantileSorted(nil, 0.5); got != 0 {
		t.Errorf("quantileSorted(nil) = %v, want 0", got)
	}
}
