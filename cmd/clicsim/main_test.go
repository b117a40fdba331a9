package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestMain runs the command itself when the test binary is started by
// run, so a test can see what clicsim prints and how it exits.
func TestMain(m *testing.M) {
	if os.Getenv("CLICSIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run starts clicsim with args and returns its stdout, stderr and exit
// status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CLICSIM_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// TestNegativeSizes: a size flag below zero, a -shards below 1, a
// -metrics-interval that is not positive, or a flag that configures the
// local cache or grid beside -connect is one line on stderr that names the
// flag, and exit status 1 — not a result row at a negative size, a panic in a policy, a
// silent default, or a replay that ignores the flag.
func TestNegativeSizes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-gen", "DB2_C60:20000", "-cache", "-5"}, "clicsim: -cache -5: must not be negative\n"},
		{[]string{"-gen", "DB2_C60:20000", "-cache", "100,-5", "-policy", "LRU"}, "clicsim: -cache -5: must not be negative\n"},
		{[]string{"-gen", "DB2_C60:20000", "-noutq", "-7"}, "clicsim: -noutq -7: must be at least -1 (0 = 5 per cache page, -1 = none)\n"},
		{[]string{"-gen", "DB2_C60:20000", "-batch", "-1"}, "clicsim: -batch -1: must not be negative\n"},
		{[]string{"-gen", "DB2_C60:20000", "-depth", "-2"}, "clicsim: -depth -2: must not be negative\n"},
		{[]string{"-gen", "DB2_C60:20000", "-limit", "-3"}, "clicsim: -limit -3: must not be negative\n"},
		{[]string{"-gen", "DB2_C60:20000", "-shards", "0"}, "clicsim: -shards 0: must be at least 1\n"},
		{[]string{"-gen", "DB2_C60:20000", "-shards", "-3"}, "clicsim: -shards -3: must be at least 1\n"},
		{[]string{"-gen", "DB2_C60:20000", "-shards", "4", "-concurrent", "-timeline", filepath.Join(t.TempDir(), "tl.csv"), "-metrics-interval", "-5s"}, "clicsim: -metrics-interval -5s: must be positive\n"},
		// 127.0.0.1:1 refuses any dial: the flag must be rejected first.
		{[]string{"-gen", "DB2_C60:20000", "-connect", "127.0.0.1:1", "-timeline", filepath.Join(t.TempDir(), "tl.csv")}, "clicsim: -timeline does not apply to -connect\n"},
		{[]string{"-gen", "DB2_C60:20000", "-connect", "127.0.0.1:1", "-shards", "4", "-concurrent"}, "clicsim: -concurrent does not apply to -connect\n"},
		{[]string{"-gen", "DB2_C60:20000", "-connect", "127.0.0.1:1", "-policy", "LRU"}, "clicsim: -policy does not apply to -connect\n"},
		{[]string{"-gen", "DB2_C60:20000", "-connect", "127.0.0.1:1", "-cache", "100"}, "clicsim: -cache does not apply to -connect\n"},
		{[]string{"-gen", "DB2_C60:20000", "-connect", "127.0.0.1:1", "-shards", "4"}, "clicsim: -shards does not apply to -connect\n"},
		{[]string{"-gen", "DB2_C60:20000", "-connect", "127.0.0.1:1", "-workers", "2"}, "clicsim: -workers does not apply to -connect\n"},
		{[]string{"-gen", "DB2_C60:20000", "-connect", "127.0.0.1:1", "-topk", "10"}, "clicsim: -topk does not apply to -connect\n"},
		{[]string{"-gen", "DB2_C60:20000", "-connect", "127.0.0.1:1", "-window", "1000"}, "clicsim: -window does not apply to -connect\n"},
		{[]string{"-gen", "DB2_C60:20000", "-connect", "127.0.0.1:1", "-r", "0.5"}, "clicsim: -r does not apply to -connect\n"},
		{[]string{"-gen", "DB2_C60:20000", "-connect", "127.0.0.1:1", "-noutq", "10"}, "clicsim: -noutq does not apply to -connect\n"},
		{[]string{"-gen", "DB2_C60:20000", "-connect", "127.0.0.1:1", "-metrics-interval", "2s"}, "clicsim: -metrics-interval does not apply to -connect\n"},
		{[]string{"-gen", "DB2_C60:20000", "-limit", "5", "-batch", "7", "-depth", "3", "-cache", "1000"}, "clicsim: -batch applies only to -connect\n"},
		{[]string{"-gen", "DB2_C60:20000", "-depth", "3"}, "clicsim: -depth applies only to -connect\n"},
		{[]string{"-gen", "DB2_C60:20000", "-limit", "5"}, "clicsim: -limit applies only to -connect\n"},
	} {
		stdout, stderr, code := run(t, tc.args...)
		if code != 1 || stderr != tc.want || stdout != "" {
			t.Errorf("clicsim %v: exit %d, stderr %q, stdout %q; want exit 1, stderr %q and no output",
				tc.args, code, stderr, stdout, tc.want)
		}
	}
}

// TestSharedFlags: -h lists the eight flags cli.Register declares with
// exactly the bytes a fresh flag set prints after cli.Register, so clicsim
// cannot drift from clicserve in a shared flag's name, default or help.
func TestSharedFlags(t *testing.T) {
	_, stderr, code := run(t, "-h")
	if code != 0 {
		t.Fatalf("clicsim -h: exit %d, stderr %q", code, stderr)
	}
	shared := flag.NewFlagSet("shared", flag.ContinueOnError)
	cli.Register(shared)
	var want strings.Builder
	shared.SetOutput(&want)
	shared.PrintDefaults()
	if got := flagEntries(stderr, shared); got != want.String() {
		t.Errorf("clicsim -h documents the shared flags as\n%s\nwant, as cli.Register declares them,\n%s", got, want.String())
	}
	var names []string
	shared.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got := strings.Join(names, " "); got != sharedNames {
		t.Errorf("cli.Register declares %s, want %s", got, sharedNames)
	}
}

// sharedNames are the eight flags cli.Register declares, in -h order.
const sharedNames = "cpuprofile memprofile metrics-interval noutq r timeline topk window"

// flagEntries returns, in order, the entries of a usage message that
// document a flag of fs: each "  -name" line and the lines under it.
func flagEntries(usage string, fs *flag.FlagSet) string {
	var b strings.Builder
	keep := false
	for _, line := range strings.SplitAfter(usage, "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
			name, _, _ = strings.Cut(name, "\t")
			keep = fs.Lookup(name) != nil
		}
		if keep {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestClusterSmoke: cache servers set up as clicserve sets them up (-cache
// 1000 -shards 4 -window 1000, an admin endpoint, a timeline every 200ms),
// and clicsim -connect replaying to them at the default depth: 10K requests
// of a trace file to one server, and 30K generated requests routed across
// three. The replay must report every request and hit; every node's
// /metrics, scraped live, must carry the labelled shard and wire series and
// show read hits and frames of at least 400 requests on average (every
// frame but a client's last holds 512); and every node's timeline must
// start with the pinned header and end with a final row once its server is
// closed.
func TestClusterSmoke(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "DB2_C60.trc")
	spec, err := workload.ParseSpec("DB2_C60:30000")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Save(tracePath, tr); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		nodes    int
		args     []string
		requests int
	}{
		{1, []string{"-trace", tracePath, "-limit", "10000"}, 10000},
		{3, []string{"-gen", "DB2_C60:30000"}, 30000},
	} {
		t.Run(fmt.Sprintf("nodes=%d", tc.nodes), func(t *testing.T) {
			smoke(t, tc.nodes, tc.args, tc.requests)
		})
	}
}

// smoke starts n cache servers, replays clicsim -connect args across them,
// and checks the replay, every node's /metrics and every node's timeline.
func smoke(t *testing.T, n int, args []string, requests int) {
	dir := t.TempDir()
	var addrs []string
	var nodes []*server.Server
	var stops []func() error
	for i := 0; i < n; i++ {
		fs := flag.NewFlagSet("clicserve", flag.ContinueOnError)
		opts := cli.Register(fs)
		if err := fs.Parse([]string{"-window", "1000", "-timeline", filepath.Join(dir, fmt.Sprintf("node%d.csv", i)), "-metrics-interval", "200ms"}); err != nil {
			t.Fatal(err)
		}
		cfg, err := opts.Config()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Capacity = sim.ClicCapacity(1000)
		srv := server.New(server.Config{Cache: cfg, Shards: 4})
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if err := srv.ListenAdmin("127.0.0.1:0"); err != nil {
			srv.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		stop, err := opts.StartTimeline(srv.StartTimeline)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		nodes, stops = append(nodes, srv), append(stops, stop)
		addrs = append(addrs, srv.Addr().String())
	}

	stdout, stderr, code := run(t, append([]string{"-connect", strings.Join(addrs, ",")}, args...)...)
	if code != 0 {
		t.Fatalf("clicsim -connect: exit %d, stderr %q", code, stderr)
	}
	m := regexp.MustCompile(`(?m)^replay total: requests=([0-9]+) .* hits=([0-9]+)`).FindStringSubmatch(stdout)
	if m == nil || m[1] != strconv.Itoa(requests) || m[2] == "0" {
		t.Errorf("replay total requests and hits = %v, want %d requests and some hits; stdout:\n%s", m, requests, stdout)
	}

	for i, srv := range nodes {
		metrics := scrape(t, "http://"+srv.AdminAddr().String()+"/metrics")
		for _, series := range []string{`clic_shard_reads_total{shard="0"}`, `clic_wire_frames_total{dir="decoded"}`} {
			if _, ok := metrics[series]; !ok {
				t.Errorf("node%d: /metrics lacks %s", i, series)
			}
		}
		if metrics["clic_cache_read_hits_total"] <= 0 {
			t.Errorf("node%d: clic_cache_read_hits_total %v, want read hits", i, metrics["clic_cache_read_hits_total"])
		}
		sum, count := metrics["clic_server_batch_requests_sum"], metrics["clic_server_batch_requests_count"]
		if count <= 0 || sum < 400*count {
			t.Errorf("node%d: %v requests in %v frames, want frames of at least 400 on average", i, sum, count)
		}
	}

	for i, srv := range nodes {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := stops[i](); err != nil {
			t.Fatal(err)
		}
		csv, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("node%d.csv", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(csv, []byte("row,elapsed_s,reason,")) || !bytes.Contains(csv, []byte(",final,")) {
			t.Errorf("node%d timeline lacks the header or a final row:\n%s", i, csv)
		}
	}
}

// scrape reads a Prometheus text endpoint's samples by series, labels
// included (`name{label="value"}`).
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			samples[line[:i]] = v
		}
	}
	return samples
}
