// Package metrics is the repository's allocation-free instrumentation
// core: atomic counters and gauges, log-bucketed histograms, a registry
// that exposes every registered series in the Prometheus text format, and
// a timeline recorder that samples registered series into CSV rows.
//
// The hot-path types are built to be touched from the sharded front's request
// path without giving back any of the zero-allocation work: Counter.Add,
// Gauge.Set and Histogram.Observe are single atomic operations into fixed
// storage — no locks, no maps, no allocation, safe for any number of
// concurrent writers. The zero value of each instrument is ready to use,
// so packages may hold instruments in plain vars and register them into a
// Registry lazily.
//
// Histograms bucket values (nanoseconds, bytes — the unit is the
// caller's) logarithmically with four sub-buckets per power of two, so
// every bucket's relative width is at most 25% and a quantile estimate is
// within ~12% of the true sample quantile. Snapshots subtract, which is
// how the timeline reports per-interval quantiles from cumulative
// histograms.
//
// The Registry renders a hand-rolled Prometheus text exposition
// (counters, gauges, histograms with cumulative le buckets) — enough for
// a Prometheus scrape or a curl, with no dependency on a client library.
// The Timeline appends one CSV row per tick: point-in-time values, deltas
// since the previous row, rates per second, delta ratios, and
// per-interval histogram quantiles. Ticks can be driven by a wall-clock
// goroutine (Start, which also snapshots on observed window rotations) or
// explicitly (Tick), and the clock is injectable so tests pin rows — and
// whole timeline files — bit-identically.
package metrics
