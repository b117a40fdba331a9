package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
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
