package main

import (
	"math"
	"sort"
)

// summary condenses one metric's per-round samples: the median is the
// reported value, the quartiles are the spread -compare reads.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the exclusive method), the rule
// the benchmark driver applies across runs, so the two spreads compare.
// With fewer than two samples the quartiles equal the median.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Median: exclusiveQuantile(s, 0.5), Q1: exclusiveQuantile(s, 0.25), Q3: exclusiveQuantile(s, 0.75), N: len(s)}
}

// exclusiveQuantile interpolates the q-quantile of sorted at position
// q·(n+1), clamped to the sample range.
func exclusiveQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(pos)
	f := pos - float64(i)
	return sorted[i] + f*(sorted[i+1]-sorted[i])
}

// spread is the inter-quartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// percentileLadder is the set of tail percentiles the benchmark reports.
var percentileLadder = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer and the figure is one outlier's position, not a tail.
const minBeyond = 10

// highestPercentile picks the highest rung of percentileLadder that still
// has at least minBeyond of the n samples beyond it; ok is false when even
// the median lacks them.
func highestPercentile(n int) (p float64, ok bool) {
	for _, q := range percentileLadder {
		if supports(n, q) {
			p, ok = q, true
		}
	}
	return p, ok
}

// supports reports whether n samples leave minBeyond of them beyond the
// q-quantile. The slack absorbs the rounding of 1-q (100 × (1-0.9) is a
// hair under 10 in floating point).
func supports(n int, q float64) bool { return float64(n)*(1-q) >= minBeyond-1e-9 }

// quantileSorted is the nearest-rank q-quantile of an ascending slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
