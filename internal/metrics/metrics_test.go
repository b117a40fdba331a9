package metrics

import (
	"strconv"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

// TestWritePrometheus pins the exposition format: sorted series, one
// HELP/TYPE header per name, label rendering, histogram buckets.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("clic_requests_total", "Requests served.", "shard", "0")
	c.Add(5)
	c2 := r.Counter("clic_requests_total", "Requests served.", "shard", "1")
	c2.Add(7)
	g := r.Gauge("clic_cache_pages", "Pages resident.")
	g.Set(123)
	h := r.Histogram("clic_batch_ns", "Batch service time.")
	h.Observe(3)
	h.Observe(3)
	h.Observe(100)
	r.GaugeFunc("clic_alpha", "Sorted first.", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP clic_alpha Sorted first.
# TYPE clic_alpha gauge
clic_alpha 1.5
# HELP clic_batch_ns Batch service time.
# TYPE clic_batch_ns histogram
clic_batch_ns_bucket{le="0"} 0
clic_batch_ns_bucket{le="1"} 0
clic_batch_ns_bucket{le="2"} 0
clic_batch_ns_bucket{le="3"} 2
clic_batch_ns_bucket{le="4"} 2
clic_batch_ns_bucket{le="5"} 2
clic_batch_ns_bucket{le="6"} 2
clic_batch_ns_bucket{le="7"} 2
clic_batch_ns_bucket{le="9"} 2
clic_batch_ns_bucket{le="11"} 2
clic_batch_ns_bucket{le="13"} 2
clic_batch_ns_bucket{le="15"} 2
clic_batch_ns_bucket{le="19"} 2
clic_batch_ns_bucket{le="23"} 2
clic_batch_ns_bucket{le="27"} 2
clic_batch_ns_bucket{le="31"} 2
clic_batch_ns_bucket{le="39"} 2
clic_batch_ns_bucket{le="47"} 2
clic_batch_ns_bucket{le="55"} 2
clic_batch_ns_bucket{le="63"} 2
clic_batch_ns_bucket{le="79"} 2
clic_batch_ns_bucket{le="95"} 2
clic_batch_ns_bucket{le="111"} 3
clic_batch_ns_bucket{le="+Inf"} 3
clic_batch_ns_sum 106
clic_batch_ns_count 3
# HELP clic_cache_pages Pages resident.
# TYPE clic_cache_pages gauge
clic_cache_pages 123
# HELP clic_requests_total Requests served.
# TYPE clic_requests_total counter
clic_requests_total{shard="0"} 5
clic_requests_total{shard="1"} 7
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHistogramSeriesStable: a histogram's bucket series, once shown, stay
// shown and never shrink, and a lower one never appears later — observe 5,
// scrape, observe 2, scrape — so a delta across two scrapes compares like
// with like. Each scrape's le labels run through consecutive buckets from
// the lowest, with no gap, to +Inf.
func TestHistogramSeriesStable(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("clic_x", "")
	scrape := func() (order []string, val map[string]string) {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		val = map[string]string{}
		for _, line := range strings.Split(b.String(), "\n") {
			name, v, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(line, "#") {
				continue
			}
			order = append(order, name)
			val[name] = v
		}
		return order, val
	}
	h.Observe(5)
	first, before := scrape()
	h.Observe(2)
	second, after := scrape()
	for _, name := range first {
		a, ok := after[name]
		if !ok {
			t.Errorf("%s shown in the first scrape, missing from the second", name)
			continue
		}
		if x, y := mustAtoi(t, before[name]), mustAtoi(t, a); y < x {
			t.Errorf("%s fell from %d to %d", name, x, y)
		}
	}
	// 2 lies below the 5 already shown: its bucket must have been shown too.
	for _, name := range second {
		if _, ok := before[name]; !ok {
			t.Errorf("%s first shown after a sample below one already shown", name)
		}
	}
	for _, order := range [][]string{first, second} {
		i := 0
		for _, name := range order {
			le, ok := strings.CutPrefix(name, `clic_x_bucket{le="`)
			le = strings.TrimSuffix(le, `"}`)
			if !ok || le == "+Inf" {
				continue
			}
			if _, hi := BucketBounds(i); le != strconv.FormatUint(hi, 10) {
				t.Fatalf("bucket series %d is le=%s, want le=%d", i, le, hi)
			}
			i++
		}
		if _, hi := BucketBounds(i - 1); hi != 5 {
			t.Errorf("highest bucket shown ends at %d, want 5", hi)
		}
	}
}

func mustAtoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRenderLabelsEscaping(t *testing.T) {
	got := renderLabels([]string{"path", `a\b"c` + "\n"})
	want := `{path="a\\b\"c\n"}`
	if got != want {
		t.Fatalf("renderLabels = %q, want %q", got, want)
	}
	if renderLabels(nil) != "" {
		t.Fatalf("renderLabels(nil) should be empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("odd label count should panic")
		}
	}()
	renderLabels([]string{"only-key"})
}

func TestMergeLabels(t *testing.T) {
	if got := mergeLabels("", "le", "+Inf"); got != `{le="+Inf"}` {
		t.Fatalf("mergeLabels empty = %q", got)
	}
	if got := mergeLabels(`{shard="3"}`, "le", "8"); got != `{shard="3",le="8"}` {
		t.Fatalf("mergeLabels nonempty = %q", got)
	}
}

// TestNilRegistry: instrumented packages register unconditionally; a nil
// registry must absorb everything without panicking.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc()
	r.Gauge("y", "").Set(1)
	r.Histogram("z", "").Observe(1)
	r.CounterFunc("f", "", func() float64 { return 0 })
	r.GaugeFunc("g", "", func() float64 { return 0 })
	r.RegisterHistogram("h", "", &Histogram{})
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{5, "5"},
		{1.5, "1.5"},
		{1e21, "1e+21"},
		{0.8571428571428571, "0.8571428571428571"},
	}
	for _, c := range cases {
		if got := formatValue(c.v); got != c.want {
			t.Errorf("formatValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
