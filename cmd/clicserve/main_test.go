package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/netclient"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestMain runs the command itself when the test binary is started by a
// test, so the test can see what clicserve prints and how it exits.
func TestMain(m *testing.M) {
	if os.Getenv("CLICSERVE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNegativeCache: a -cache below zero, or a -shards below 1, is one
// line on stderr that names the flag, and exit status 1, before anything
// listens — not a panic in the cache, or a front of server.New's default
// shard count.
func TestNegativeCache(t *testing.T) {
	// A clicserve that accepted a value would serve until killed.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cache", "-5"}, "clicserve: -cache -5: must not be negative\n"},
		{[]string{"-shards", "0"}, "clicserve: -shards 0: must be at least 1\n"},
		{[]string{"-shards", "-3"}, "clicserve: -shards -3: must be at least 1\n"},
	} {
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
		cmd.Env = append(os.Environ(), "CLICSERVE_MAIN=1")
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		var exit *exec.ExitError
		if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		if code := cmd.ProcessState.ExitCode(); code != 1 || errOut.String() != tc.want || out.Len() != 0 {
			t.Errorf("clicserve %v: exit %d, stderr %q, stdout %q; want exit 1, stderr %q and no output",
				tc.args, code, errOut.String(), out.String(), tc.want)
		}
	}
}

// TestSharedFlags: -h lists the eight flags cli.Register declares with
// exactly the bytes a fresh flag set prints after cli.Register, so clicserve
// cannot drift from clicsim in a shared flag's name, default or help.
func TestSharedFlags(t *testing.T) {
	// A clicserve that ignored -h would serve until killed.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-h")
	cmd.Env = append(os.Environ(), "CLICSERVE_MAIN=1")
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("clicserve -h: %v, stderr %q", err, errOut.String())
	}
	stderr := errOut.String()
	shared := flag.NewFlagSet("shared", flag.ContinueOnError)
	cli.Register(shared)
	var want strings.Builder
	shared.SetOutput(&want)
	shared.PrintDefaults()
	if got := flagEntries(stderr, shared); got != want.String() {
		t.Errorf("clicserve -h documents the shared flags as\n%s\nwant, as cli.Register declares them,\n%s", got, want.String())
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

// TestLoopbackSmoke: clicserve started as an operator starts it (-cache 3000
// -shards 8, an admin endpoint, a timeline every 200ms) serves 10K requests
// of a DB2_C60 trace file replayed over TCP the way clicsim -connect replays
// them to one address. The replay must hit; /stats?top=5 must answer JSON;
// /metrics, scraped live, must carry every layer's series family, read hits,
// served batches and frames of at least 400 requests on average (every
// frame but a client's last holds 512). On SIGINT and on SIGTERM alike the
// server must drain, exit 0 and print its final accounting table, and its
// timeline must start with the pinned header and end with a final row.
func TestLoopbackSmoke(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "DB2_C60.trc")
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
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM} {
		t.Run(sig.String(), func(t *testing.T) {
			timeline := filepath.Join(t.TempDir(), "timeline.csv")
			// A clicserve that ignored the signal would serve until killed.
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0",
				"-cache", "3000", "-shards", "8", "-timeline", timeline, "-metrics-interval", "200ms")
			cmd.Env = append(os.Environ(), "CLICSERVE_MAIN=1")
			var out bytes.Buffer
			cmd.Stdout = &out
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var errLog bytes.Buffer
			errR := bufio.NewReader(stderr)
			addr, admin := listening(t, errR, &errLog)
			drained := make(chan struct{})
			go func() {
				io.Copy(&errLog, errR)
				close(drained)
			}()

			res, err := netclient.ReplaySource(addr, trace.FileSource(tracePath), netclient.ReplayOptions{Limit: 10000})
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != 10000 || res.ReadHits == 0 {
				t.Errorf("replay: %d requests, %d read hits; want 10000 requests and some hits", res.Requests, res.ReadHits)
			}

			resp, err := http.Get("http://" + admin + "/stats?top=5")
			if err != nil {
				t.Fatal(err)
			}
			stats, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(stats) {
				t.Errorf("GET /stats?top=5: status %d, %v, valid JSON %v:\n%s", resp.StatusCode, err, json.Valid(stats), stats)
			}

			metrics := scrape(t, "http://"+admin+"/metrics")
			for _, series := range []string{
				"clic_cache_reads_total",
				`clic_shard_reads_total{shard="0"}`,
				`clic_wire_frames_total{dir="decoded"}`,
				"clic_server_batches_total",
				"clic_server_batch_ns_count",
				"clic_learner_deferred_windows_total",
				"clic_netclient_batches_total",
			} {
				if _, ok := metrics[series]; !ok {
					t.Errorf("/metrics lacks %s", series)
				}
			}
			for _, series := range []string{"clic_cache_read_hits_total", "clic_server_batches_total"} {
				if metrics[series] <= 0 {
					t.Errorf("%s = %v, want above 0", series, metrics[series])
				}
			}
			sum, count := metrics["clic_server_batch_requests_sum"], metrics["clic_server_batch_requests_count"]
			if count <= 0 || sum < 400*count {
				t.Errorf("%v requests in %v frames, want frames of at least 400 on average", sum, count)
			}

			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			<-drained
			if err := cmd.Wait(); err != nil {
				t.Fatalf("clicserve after %v: %v, stderr:\n%s", sig, err, errLog.String())
			}
			if !strings.Contains(out.String(), "final accounting") || !strings.Contains(out.String(), "overall") {
				t.Errorf("clicserve after %v printed no final accounting table; stdout:\n%s", sig, out.String())
			}
			csv, err := os.ReadFile(timeline)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(csv, []byte("row,elapsed_s,reason,")) || !bytes.Contains(csv, []byte(",final,")) {
				t.Errorf("timeline lacks the header or a final row:\n%s", csv)
			}
		})
	}
}

// listening copies clicserve's stderr into log up to the line that says
// where it serves, and returns the page-request and admin addresses it
// printed.
func listening(t *testing.T, stderr *bufio.Reader, log *bytes.Buffer) (addr, admin string) {
	t.Helper()
	for {
		line, err := stderr.ReadString('\n')
		log.WriteString(line)
		if rest, ok := strings.CutPrefix(line, "clicserve: admin stats at http://"); ok {
			admin, _, _ = strings.Cut(rest, "/")
		}
		if _, rest, ok := strings.Cut(line, " serving on "); ok {
			return strings.TrimSpace(rest), admin
		}
		if err != nil {
			t.Fatalf("clicserve never said where it serves: %v; stderr:\n%s", err, log)
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
