package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// ServeMetrics instruments a ServeIterator run. Every field is
// optional; the zero value (and a nil *ServeMetrics) turns everything off.
// A ServeMetrics is used by pointer and may be shared by the run's client
// goroutines.
type ServeMetrics struct {
	// BatchLatency, when non-nil, receives one observation per AccessBatch
	// call with its service time in the clock's units.
	BatchLatency *metrics.Histogram
	// Clock times batches for BatchLatency. Nil selects wall time
	// (time.Since in nanoseconds); tests inject scripted clocks so latency
	// observations — and the timeline columns derived from them — are
	// deterministic. The clock must be safe for concurrent use when the
	// trace has several clients.
	Clock func() time.Duration
	// EveryRequests, when positive, invokes OnMark each time the cumulative
	// request count crosses a multiple of it — a logical, trace-position
	// clock for timeline rows, independent of wall time. Crossings are
	// detected after each batch, so marks land on batch boundaries.
	EveryRequests int
	// OnMark is called on EveryRequests crossings with the total requests
	// served so far. Calls are serialized across client goroutines.
	OnMark func(total uint64)

	served atomic.Uint64
	markMu sync.Mutex
}

// mark accounts one completed batch and fires OnMark on boundary
// crossings. The crossing test and callback run under a mutex so marks
// are serialized and none is lost when client goroutines race.
func (m *ServeMetrics) mark(batch int) {
	if m.EveryRequests <= 0 {
		return
	}
	m.markMu.Lock()
	before := m.served.Load()
	after := before + uint64(batch)
	m.served.Store(after)
	if m.OnMark != nil && before/uint64(m.EveryRequests) != after/uint64(m.EveryRequests) {
		m.OnMark(after)
	}
	m.markMu.Unlock()
}

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
