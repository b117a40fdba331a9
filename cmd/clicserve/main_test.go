package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
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
