package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

func parse(t *testing.T, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	return f, fs.Parse(args)
}

func TestFlagsReachConfig(t *testing.T) {
	f, err := parse(t, "-topk", "7", "-window", "11", "-r", "0.25", "-noutq", "13",
		"-timeline", "tl.csv", "-metrics-interval", "3ms", "-cpuprofile", "cpu.prof", "-memprofile", "mem.prof")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := core.Config{TopK: 7, Window: 11, R: 0.25, Noutq: 13}
	if cfg != want {
		t.Errorf("Config() = %+v, want %+v", cfg, want)
	}
	if f.Timeline != "tl.csv" || f.Interval != 3*time.Millisecond {
		t.Errorf("timeline %q every %v, want tl.csv every 3ms", f.Timeline, f.Interval)
	}
	if f.cpuprofile != "cpu.prof" || f.memprofile != "mem.prof" {
		t.Errorf("profiles %q, %q, want cpu.prof, mem.prof", f.cpuprofile, f.memprofile)
	}

	f, err = parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err := f.Config(); err != nil || cfg != (core.Config{}) {
		t.Errorf("defaults: Config() = %+v, %v; want the zero config", cfg, err)
	}
	if f.Timeline != "" || f.Interval != time.Second || f.cpuprofile != "" || f.memprofile != "" {
		t.Errorf("defaults: timeline %q every %v, profiles %q, %q", f.Timeline, f.Interval, f.cpuprofile, f.memprofile)
	}
}

// TestBadStats checks that Config refuses, with one error naming the flag,
// every CLIC setting no cache accepts, rather than letting it panic in the
// learner or pass silently, and a -metrics-interval the timeline recorder
// would silently replace.
func TestBadStats(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-topk", "-3"}, "-topk -3: must not be negative (0 = all hint sets)"},
		{[]string{"-window", "-5"}, "-window -5: must not be negative (0 = default)"},
		{[]string{"-noutq", "-7"}, "-noutq -7: must be at least -1 (0 = 5 per cache page, -1 = none)"},
		{[]string{"-noutq", "-2"}, "-noutq -2: must be at least -1 (0 = 5 per cache page, -1 = none)"},
		{[]string{"-r", "2"}, "-r 2: must be in (0, 1] (0 = default 1.0)"},
		{[]string{"-r", "-0.5"}, "-r -0.5: must be in (0, 1] (0 = default 1.0)"},
		{[]string{"-r", "NaN"}, "-r NaN: must be in (0, 1] (0 = default 1.0)"},
		{[]string{"-metrics-interval", "-5s"}, "-metrics-interval -5s: must be positive"},
		{[]string{"-metrics-interval", "0"}, "-metrics-interval 0s: must be positive"},
	} {
		f, err := parse(t, tc.args...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Config(); err == nil || err.Error() != tc.want {
			t.Errorf("%v: Config() error %v, want %v", tc.args, err, tc.want)
		}
	}
	// -cache is each command's own flag; both check it here.
	const want = "-cache -5: must not be negative"
	if err := Check(core.Config{Capacity: -5}); err == nil || err.Error() != want {
		t.Errorf("Capacity -5: Check error %v, want %v", err, want)
	}
}

func TestTimelineFlushesAndCloses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tl.csv")
	// -timeline replaces what the file held.
	if err := os.WriteFile(path, []byte("stale contents\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := parse(t, "-timeline", path, "-metrics-interval", "1h")
	if err != nil {
		t.Fatal(err)
	}
	var gotInterval time.Duration
	stop, err := f.StartTimeline(func(w io.Writer, interval time.Duration) func() {
		gotInterval = interval
		tl := metrics.NewTimeline(w)
		tl.Value("x", func() float64 { return 1 })
		return tl.Start(interval, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotInterval != time.Hour {
		t.Errorf("recorder got interval %v, want 1h", gotInterval)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "row,elapsed_s,reason,x\n") || !strings.Contains(string(data), ",final,") {
		t.Errorf("timeline file holds %q, want the header and a final row", data)
	}
	if fds, err := os.ReadDir("/proc/self/fd"); err == nil {
		for _, fd := range fds {
			if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); target == path {
				t.Errorf("timeline file still open as fd %s", fd.Name())
			}
		}
	}

	f, err = parse(t)
	if err != nil {
		t.Fatal(err)
	}
	stop, err = f.StartTimeline(func(io.Writer, time.Duration) func() {
		t.Error("recorder started without -timeline")
		return func() {}
	})
	if err != nil || stop() != nil {
		t.Errorf("without -timeline: err %v", err)
	}
}

func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	f, err := parse(t, "-cpuprofile", cpu, "-memprofile", mem)
	if err != nil {
		t.Fatal(err)
	}
	stop, err := f.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	// With the collector off, only stop's own GC can count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	gcs := numGC()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if numGC() == gcs {
		t.Error("heap profile written without a GC first")
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", filepath.Base(p), err)
		}
	}

	f, err = parse(t)
	if err != nil {
		t.Fatal(err)
	}
	stop, err = f.StartProfiles()
	if err != nil || stop() != nil {
		t.Errorf("without profiles: err %v", err)
	}
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}
