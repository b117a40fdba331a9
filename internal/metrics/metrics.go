package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use; all methods are safe for concurrent use and never allocate.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use; all methods are safe for concurrent use and never allocate.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// kind is a series' Prometheus metric type.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered time series: a metric name, an optional label
// set, and either a scalar read function or a histogram.
type series struct {
	name   string
	help   string
	labels string // pre-rendered {k="v",...}, or ""
	kind   kind
	read   func() float64 // counter/gauge
	hist   *Histogram     // histogram
}

// Registry holds named series and renders them in the Prometheus text
// exposition format. Registration is cheap but takes a lock; do it at
// setup time, not on the request path. A nil *Registry ignores
// registrations, so instrumented packages need no "metrics off" branches.
type Registry struct {
	mu     sync.Mutex
	series []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// renderLabels turns alternating key, value strings into a Prometheus
// label block, escaping values per the text format.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("metrics: labels must be alternating key, value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		v := labels[i+1]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) add(s *series) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.series = append(r.series, s)
	r.mu.Unlock()
}

// Counter creates, registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, func() float64 { return float64(c.Value()) }, labels...)
	return c
}

// Gauge creates, registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(name, help, func() float64 { return float64(g.Value()) }, labels...)
	return g
}

// Histogram creates, registers and returns a histogram series.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	h := &Histogram{}
	r.RegisterHistogram(name, help, h, labels...)
	return h
}

// CounterFunc registers a counter series read from fn at exposition time —
// the way existing atomic accounting (core.Sharded.Stats, wire.Metrics) is
// exposed without double-counting on the hot path.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.add(&series{name: name, help: help, labels: renderLabels(labels), kind: kindCounter, read: fn})
}

// GaugeFunc registers a gauge series read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.add(&series{name: name, help: help, labels: renderLabels(labels), kind: kindGauge, read: fn})
}

// RegisterHistogram registers an externally owned histogram (package-level
// instruments like netclient's RTT histogram).
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...string) {
	r.add(&series{name: name, help: help, labels: renderLabels(labels), kind: kindHistogram, hist: h})
}

// formatValue renders a sample value like Prometheus clients do: integral
// floats print without a decimal point.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4): series sorted by name then label set,
// one HELP/TYPE header per metric name, histograms as cumulative le
// buckets plus _sum and _count. A histogram shows every bucket from the
// lowest through its highest non-empty one, empty ones included, so a
// series once shown is never preceded by a new lower one: a delta across
// two scrapes then compares the same le series. A histogram's _count and
// +Inf bucket come from the same snapshot so the exposition is
// self-consistent even under concurrent Observe calls.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ss := make([]*series, len(r.series))
	copy(ss, r.series)
	r.mu.Unlock()
	sort.SliceStable(ss, func(i, j int) bool {
		if ss[i].name != ss[j].name {
			return ss[i].name < ss[j].name
		}
		return ss[i].labels < ss[j].labels
	})
	var b strings.Builder
	prev := ""
	for _, s := range ss {
		if s.name != prev {
			prev = s.name
			if s.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.name, s.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, s.kind)
		}
		if s.kind != kindHistogram {
			fmt.Fprintf(&b, "%s%s %s\n", s.name, s.labels, formatValue(s.read()))
			continue
		}
		var snap HistSnapshot
		s.hist.Snapshot(&snap)
		top := -1
		for i, n := range snap.Counts {
			if n != 0 {
				top = i
			}
		}
		cum := uint64(0)
		for i, n := range snap.Counts[:top+1] {
			cum += n
			_, hi := BucketBounds(i)
			fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, mergeLabels(s.labels, "le", formatValue(float64(hi))), cum)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, mergeLabels(s.labels, "le", "+Inf"), cum)
		fmt.Fprintf(&b, "%s_sum%s %d\n", s.name, s.labels, snap.Sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", s.name, s.labels, cum)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// mergeLabels appends one extra label to a pre-rendered label block.
func mergeLabels(labels, k, v string) string {
	extra := k + `="` + v + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}
