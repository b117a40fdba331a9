package server

import (
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/netclient"
	"repro/internal/wire"
)

// buildRegistry wires every layer's series into the server's registry,
// scrape-time reads only — the hot path keeps writing the same atomics it
// already wrote, and the registry reads them when someone asks.
//
// Four families ride on one endpoint: clic_cache_* and clic_shard_* read
// the front's snapshot counters, clic_wire_* the process-wide codec
// counters, clic_server_* the connection and batch-service accounting, and
// clic_netclient_* the in-process client instruments. The client series
// count this process's netclient use (loopback replays, tests); against
// remote clients they sit at zero.
func (s *Server) buildRegistry() {
	r := metrics.NewRegistry()
	s.registry = r

	c := s.cache
	r.CounterFunc("clic_cache_reads_total", "Read requests served by the front.",
		func() float64 { return float64(c.Stats().Reads) })
	r.CounterFunc("clic_cache_read_hits_total", "Read requests that hit cache.",
		func() float64 { return float64(c.Stats().ReadHits) })
	r.CounterFunc("clic_cache_writes_total", "Write requests served by the front.",
		func() float64 { return float64(c.Stats().Writes) })
	r.CounterFunc("clic_cache_evictions_total", "Pages displaced by higher-priority admits.",
		func() float64 { return float64(c.Stats().Evictions) })
	r.CounterFunc("clic_cache_rotations_total", "Completed statistics windows (learner rotations).",
		func() float64 { return float64(c.Windows()) })
	r.GaugeFunc("clic_cache_pages", "Pages resident in cache.",
		func() float64 { return float64(c.Len()) })
	r.GaugeFunc("clic_cache_capacity_pages", "Configured page capacity.",
		func() float64 { return float64(c.Capacity()) })
	r.GaugeFunc("clic_cache_outqueue_depth", "Outqueue entries (uncached-page history).",
		func() float64 { return float64(c.OutqueueLen()) })
	r.GaugeFunc("clic_cache_tracked_hint_sets", "Hint sets tracked in the current window.",
		func() float64 { return float64(c.TrackedHintSets()) })

	for i := 0; i < c.Shards(); i++ {
		i := i
		shard := strconv.Itoa(i)
		r.CounterFunc("clic_shard_reads_total", "Read requests by shard.",
			func() float64 { return float64(c.ShardStats(i).Reads) }, "shard", shard)
		r.CounterFunc("clic_shard_read_hits_total", "Read hits by shard.",
			func() float64 { return float64(c.ShardStats(i).ReadHits) }, "shard", shard)
		r.CounterFunc("clic_shard_evictions_total", "Evictions by shard.",
			func() float64 { return float64(c.ShardStats(i).Evictions) }, "shard", shard)
		r.GaugeFunc("clic_shard_pages", "Resident pages by shard.",
			func() float64 { return float64(c.ShardStats(i).Len) }, "shard", shard)
		r.GaugeFunc("clic_shard_outqueue_depth", "Outqueue entries by shard.",
			func() float64 { return float64(c.ShardStats(i).OutqueueLen) }, "shard", shard)
	}

	r.CounterFunc("clic_core_frames_total", "Per-shard frames posted by connection producers.",
		func() float64 { return float64(s.frames.Value()) })
	r.CounterFunc("clic_core_frames_foreign_total", "Posted frames run by another connection's goroutine holding the shard.",
		func() float64 { return float64(s.framesForeign.Value()) })

	wire.RegisterMetrics(r)
	netclient.RegisterMetrics(r)

	r.GaugeFunc("clic_server_connections_active", "Open page-request connections.",
		func() float64 { return float64(s.connsActive.Value()) })
	r.CounterFunc("clic_server_connections_total", "Page-request connections accepted since start.",
		func() float64 { return float64(s.connsTotal.Value()) })
	r.CounterFunc("clic_server_batches_total", "Request batches served.",
		func() float64 { return float64(s.batchesTotal.Value()) })
	r.GaugeFunc("clic_server_inflight_batches", "Pipelined batches accepted but not yet answered, all connections.",
		func() float64 { return float64(s.inflight.Value()) })
	r.CounterFunc("clic_server_flushes_total", "Writer buffer flushes (batches per flush is the write-coalescing factor).",
		func() float64 { return float64(s.flushes.Value()) })
	r.RegisterHistogram("clic_server_batch_ns", "Batch service time (decode to response write) in nanoseconds.", &s.batchNs)
	r.RegisterHistogram("clic_server_batch_requests", "Requests per served batch frame.", &s.batchReqs)

	r.CounterFunc("clic_learner_deferred_windows_total", "Shard windows a rotation found mid-frame and left to the next round.",
		func() float64 { return float64(c.Global().DeferredWindows()) })
}

// Registry exposes the server's metrics registry (for embedding callers
// that want to add their own series next to the server's).
func (s *Server) Registry() *metrics.Registry { return s.registry }

// BatchServiceTime exposes the cumulative batch service-time histogram.
func (s *Server) BatchServiceTime() *metrics.Histogram { return &s.batchNs }

// handleMetrics serves the registry in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A write error means the scraper went away mid-response.
	_ = s.registry.WritePrometheus(w)
}

// StartTimeline attaches a timeline recorder to the server: the standard
// cache columns (engine.CacheTimeline — same schema as clicsim's) over the
// server's batch service-time histogram, sampled every interval and on
// window rotations. The returned stop function writes the final row; call
// it before Close so the last rows still see the cache.
func (s *Server) StartTimeline(w io.Writer, interval time.Duration) (stop func()) {
	tl := metrics.NewTimeline(w)
	engine.CacheTimeline(tl, s.cache, &s.batchNs)
	tl.Value("connections", func() float64 { return float64(s.connsActive.Value()) })
	return tl.Start(interval, func() float64 { return float64(s.cache.Windows()) })
}
