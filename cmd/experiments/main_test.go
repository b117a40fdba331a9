package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestMain runs the command itself when the test binary is started by
// run, so a test can see what experiments prints and how it exits.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run starts experiments with args and returns its stdout, stderr and exit
// status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// TestBadFlags: a -scale that is not a positive number no larger than
// maxScale, a negative -workers, or a -fig that names no figure, is one
// line on stderr that names the flag, and exit status 1 — not a run at
// full scale, a run at the 10,000-request floor after the request count
// overflowed, a run on every core, or a run of nothing.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "0"}, "experiments: -scale 0: must be in (0, 1000]\n"},
		{[]string{"-scale", "-1"}, "experiments: -scale -1: must be in (0, 1000]\n"},
		{[]string{"-scale", "NaN"}, "experiments: -scale NaN: must be in (0, 1000]\n"},
		{[]string{"-scale", "Inf"}, "experiments: -scale +Inf: must be in (0, 1000]\n"},
		{[]string{"-scale", "1e30"}, "experiments: -scale 1e+30: must be in (0, 1000]\n"},
		{[]string{"-workers", "-2"}, "experiments: -workers -2: must not be negative (0 = all cores)\n"},
		{[]string{"-fig", "nosuchfigure"}, "experiments: -fig: unknown figure \"nosuchfigure\" (valid: " + ids(experiments.Figures) + ")\n"},
	} {
		stdout, stderr, code := run(t, tc.args...)
		if code != 1 || stderr != tc.want || stdout != "" {
			t.Errorf("experiments %v: exit %d, stderr %q, stdout %q; want exit 1, stderr %q and no output",
				tc.args, code, stderr, stdout, tc.want)
		}
	}
}

// TestSameAtAnyWorkerCount is the engine's determinism promise at the
// command line: every figure at toy scale prints the same bytes on the
// default pool as on a pool of one.
func TestSameAtAnyWorkerCount(t *testing.T) {
	pool, stderr, code := run(t, "-scale", "0.01")
	if code != 0 || pool == "" {
		t.Fatalf("experiments -scale 0.01: exit %d, %d bytes of output, stderr %q", code, len(pool), stderr)
	}
	serial, stderr, code := run(t, "-scale", "0.01", "-workers", "1")
	if code != 0 {
		t.Fatalf("experiments -scale 0.01 -workers 1: exit %d, stderr %q", code, stderr)
	}
	if pool != serial {
		p, s := strings.Split(pool, "\n"), strings.Split(serial, "\n")
		i := 0
		for i < min(len(p), len(s)) && p[i] == s[i] {
			i++
		}
		t.Errorf("stdout differs from line %d: default pool %q, -workers 1 %q", i+1, at(p, i), at(s, i))
	}
}

// at is lines[i], or "" past the end.
func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

func TestSelectFigures(t *testing.T) {
	figs := []experiments.Figure{{ID: "2"}, {ID: "11"}, {ID: "zoo"}}
	if got, err := selectFigures("", figs); err != nil || ids(got) != "2,11,zoo" {
		t.Errorf(`"" = %q, %v; want every figure`, ids(got), err)
	}
	if got, err := selectFigures("zoo, 11", figs); err != nil || ids(got) != "11,zoo" {
		t.Errorf(`"zoo, 11" = %q, %v; want 11,zoo in registry order`, ids(got), err)
	}
	for _, arg := range []string{"12", "2,nope", "2,,11", "1"} {
		_, err := selectFigures(arg, figs)
		if err == nil {
			t.Errorf("%q accepted", arg)
			continue
		}
		if !strings.Contains(err.Error(), "2,11,zoo") {
			t.Errorf("%q: error %q does not list the valid ids", arg, err)
		}
	}
}
