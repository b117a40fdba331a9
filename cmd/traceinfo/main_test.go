package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestMain runs the command itself when the test binary is started by
// run, so a test can see what traceinfo prints and how it exits.
func TestMain(m *testing.M) {
	if os.Getenv("TRACEINFO_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run starts traceinfo with args and returns its stdout, stderr and exit
// status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRACEINFO_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// smallTrace writes a short DB2_C60 trace and returns its path.
func smallTrace(t *testing.T) string {
	t.Helper()
	s, err := workload.ParseSpec("DB2_C60:2000")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Trace()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "DB2_C60.trc")
	if err := trace.Save(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestNegativeWindows: a negative -windows is one line on stderr that
// names the flag, and exit status 1 — not the summary table.
func TestNegativeWindows(t *testing.T) {
	stdout, stderr, code := run(t, "-windows", "-5", smallTrace(t))
	const want = "traceinfo: -windows -5: must not be negative (0 = no windows)\n"
	if code != 1 || stderr != want || stdout != "" {
		t.Errorf("traceinfo -windows -5: exit %d, stderr %q, stdout %q; want exit 1, stderr %q and no output",
			code, stderr, stdout, want)
	}
}

// TestWindows: a positive -windows prints one row per window, and the
// summary table without it.
func TestWindows(t *testing.T) {
	path := smallTrace(t)
	stdout, stderr, code := run(t, "-windows", "500", path)
	if code != 0 || stderr != "" || !bytes.Contains([]byte(stdout), []byte("windows of 500 requests")) {
		t.Fatalf("traceinfo -windows 500: exit %d, stderr %q, stdout %q", code, stderr, stdout)
	}
	stdout, stderr, code = run(t, path)
	if code != 0 || stderr != "" || !bytes.Contains([]byte(stdout), []byte("distinct pages")) {
		t.Fatalf("traceinfo: exit %d, stderr %q, stdout %q", code, stderr, stdout)
	}
}
