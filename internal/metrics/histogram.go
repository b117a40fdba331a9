package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count of a Histogram: values 0–3 get
// exact buckets, every higher power of two is split into four sub-buckets
// (two mantissa bits), covering the full uint64 range in 4 + 4·62
// buckets. The relative width of every bucket is at most 25%.
const NumBuckets = 252

// Histogram is a log-bucketed histogram of uint64 samples (latencies in
// nanoseconds, sizes in bytes — the unit is the caller's). The zero value
// is ready to use. Observe is a few atomic adds into fixed storage: no
// locks, no allocation, safe for any number of concurrent writers — cheap
// enough for the sharded front's batch path.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
}

// bucketIndex maps a sample to its bucket: exact for v < 4, then
// 4·(exp−1) + the two bits below the leading one.
func bucketIndex(v uint64) int {
	if v < 4 {
		return int(v)
	}
	e := bits.Len64(v) - 1 // position of the leading one, ≥ 2
	m := (v >> (uint(e) - 2)) & 3
	return 4*(e-1) + int(m)
}

// BucketBounds returns the inclusive sample range [lo, hi] of bucket i.
func BucketBounds(i int) (lo, hi uint64) {
	if i < 4 {
		return uint64(i), uint64(i)
	}
	e := uint(i/4 + 1)
	m := uint64(i % 4)
	lo = (4 + m) << (e - 2)
	hi = lo + 1<<(e-2) - 1
	return lo, hi
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// HistSnapshot is a point-in-time copy of a histogram's buckets. Snapshots
// subtract (Sub), which is how per-interval distributions are carved out
// of cumulative histograms; reusing one snapshot as the destination keeps
// the operation allocation-free.
type HistSnapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64
	Sum    uint64
}

// Snapshot copies the histogram's current state into dst. Buckets are
// loaded one atomic at a time, so a snapshot taken under concurrent
// Observe calls may be mid-update across buckets; Count and Sum here are
// the raw totals, while quantile math uses the bucket sums so each
// snapshot is internally consistent.
func (h *Histogram) Snapshot(dst *HistSnapshot) {
	for i := range h.counts {
		dst.Counts[i] = h.counts[i].Load()
	}
	dst.Count = h.count.Load()
	dst.Sum = h.sum.Load()
}

// Sub subtracts an earlier snapshot in place, leaving the distribution of
// the samples observed between the two.
func (s *HistSnapshot) Sub(prev *HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] -= prev.Counts[i]
	}
	s.Count -= prev.Count
	s.Sum -= prev.Sum
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the snapshot's samples
// by walking the buckets and interpolating linearly inside the target
// bucket. With 25%-wide buckets the estimate is within ~12% of the true
// sample value. Returns 0 when the snapshot is empty.
func (s *HistSnapshot) Quantile(q float64) float64 {
	total := uint64(0)
	for i := range s.Counts {
		total += s.Counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	cum := uint64(0)
	for i, n := range s.Counts {
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := BucketBounds(i)
			f := float64(target-cum) / float64(n)
			return float64(lo) + f*float64(hi-lo)
		}
		cum += n
	}
	return 0 // unreachable: target ≤ total
}

// Quantile estimates the q-quantile of all samples observed so far.
func (h *Histogram) Quantile(q float64) float64 {
	var s HistSnapshot
	h.Snapshot(&s)
	return s.Quantile(q)
}

// Summary condenses a histogram for JSON reporting (the admin /stats
// endpoint): totals, mean, and a few standard quantiles. Max is the upper
// bound of the highest non-empty bucket, so it overshoots the true
// maximum by at most the bucket width.
type Summary struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Summary returns the histogram's current summary.
func (h *Histogram) Summary() Summary {
	var s HistSnapshot
	h.Snapshot(&s)
	sum := Summary{Count: s.Count, Sum: s.Sum}
	if s.Count == 0 {
		return sum
	}
	sum.Mean = float64(s.Sum) / float64(s.Count)
	sum.P50 = s.Quantile(0.50)
	sum.P90 = s.Quantile(0.90)
	sum.P99 = s.Quantile(0.99)
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Counts[i] > 0 {
			_, hi := BucketBounds(i)
			sum.Max = float64(hi)
			break
		}
	}
	return sum
}
