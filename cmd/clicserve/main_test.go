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
