package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestMain runs the command itself when the test binary is started by
// TestNegativeCache, so the test can see what clicserve prints and how it
// exits.
func TestMain(m *testing.M) {
	if os.Getenv("CLICSERVE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNegativeCache: -cache below zero is one line on stderr that names
// the flag, and exit status 1, before anything listens — not a panic in
// the cache.
func TestNegativeCache(t *testing.T) {
	// A clicserve that accepted the size would serve until killed.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-addr", "127.0.0.1:0", "-cache", "-5")
	cmd.Env = append(os.Environ(), "CLICSERVE_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	const want = "clicserve: -cache -5: must not be negative\n"
	if code := cmd.ProcessState.ExitCode(); code != 1 || errOut.String() != want || out.Len() != 0 {
		t.Errorf("exit %d, stderr %q, stdout %q; want exit 1, stderr %q and no output",
			code, errOut.String(), out.String(), want)
	}
}
