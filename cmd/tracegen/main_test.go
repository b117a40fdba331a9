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
