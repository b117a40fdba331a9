package engine

import (
	"repro/internal/core"
	"repro/internal/metrics"
)

// CacheTimeline registers the standard cache columns on a timeline: the
// per-interval request count and rate, hit ratio, eviction and rotation
// deltas, resident pages and outqueue depth, and (when batchLatency is
// non-nil) p50/p99 of the interval's batch service times. One call gives
// clicsim and clicserve the same timeline schema.
func CacheTimeline(tl *metrics.Timeline, s *core.Sharded, batchLatency *metrics.Histogram) {
	tl.Delta("requests", func() float64 { return float64(s.Stats().Requests) })
	tl.Rate("req_per_s", func() float64 { return float64(s.Stats().Requests) })
	tl.RatioOfDeltas("hit_ratio",
		func() float64 { return float64(s.Stats().ReadHits) },
		func() float64 { return float64(s.Stats().Reads) })
	tl.Delta("evictions", func() float64 { return float64(s.Stats().Evictions) })
	tl.Delta("rotations", func() float64 { return float64(s.Windows()) })
	tl.Value("len", func() float64 { return float64(s.Len()) })
	tl.Value("outq", func() float64 { return float64(s.OutqueueLen()) })
	if batchLatency != nil {
		tl.Quantile("batch_p50_ns", batchLatency, 0.50)
		tl.Quantile("batch_p99_ns", batchLatency, 0.99)
	}
}
