package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"testing"
)

// TestMain runs the command itself when the test binary is started by
// run, so a test can see what tracegen prints and how it exits.
func TestMain(m *testing.M) {
	if os.Getenv("TRACEGEN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run starts tracegen with args and returns its stdout, stderr and exit
// status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRACEGEN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// TestNegativeWorkers: a negative -workers is one line on stderr that
// names the flag, and exit status 1 — not a trace written by one encoder,
// and no file at all.
func TestNegativeWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.trc")
	stdout, stderr, code := run(t, "-spec", "DB2_C60:20000", "-o", path, "-workers", "-2")
	const want = "tracegen: -workers -2: must not be negative (0 = all cores)\n"
	if code != 1 || stderr != want || stdout != "" {
		t.Errorf("tracegen -workers -2: exit %d, stderr %q, stdout %q; want exit 1, stderr %q and no output",
			code, stderr, stdout, want)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("tracegen -workers -2 left %s behind (stat: %v)", path, err)
	}
}

// TestStreamingBoundedMemory: ten million requests of four interleaved
// DB2_C60 clients stream straight to disk through the parallel encoder,
// verify end to end (block checksums and trailer counts), and keep the
// generator's peak resident set, the kernel's high-water mark, under
// 256 MiB: the trace is never held in memory. A trace built in RAM before
// writing peaks above 300 MiB at this size.
func TestStreamingBoundedMemory(t *testing.T) {
	stdout, stderr, code := run(t, "-spec", "DB2_C60*4:10000000", "-o", filepath.Join(t.TempDir(), "big.trc"), "-verify")
	if code != 0 {
		t.Fatalf("tracegen: exit %d, stderr %q", code, stderr)
	}
	if !regexp.MustCompile(`(?m)^verify: OK`).MatchString(stdout) {
		t.Errorf("tracegen -verify did not report OK; stdout:\n%s", stdout)
	}
	m := regexp.MustCompile(`(?m)^peak rss: ([0-9]+) KB$`).FindStringSubmatch(stdout)
	if m == nil {
		if runtime.GOOS == "linux" {
			t.Errorf("tracegen printed no peak rss line; stdout:\n%s", stdout)
		}
		return
	}
	if kb, _ := strconv.Atoi(m[1]); kb >= 262144 {
		t.Errorf("generator peak rss %d KB, want below 262144 KB (256 MiB)", kb)
	}
}
