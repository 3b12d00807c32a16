package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests re-execute this test binary as mm-trace itself.
func TestMain(m *testing.M) {
	if os.Getenv("MM_TRACE_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mmTrace runs mm-trace with args and returns its stdout, stderr and exit
// code.
func mmTrace(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MM_TRACE_AS_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("mm-trace %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

func TestRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{nil, 2, "usage"},
		{[]string{"-make", "square"}, 2, "usage"},
		// Traces past trace.MaxOpportunities are refused before they are
		// built, instead of exhausting memory.
		{[]string{"-make", "constant", "-rate", "1e6"}, 1, "delivery opportunities"},
		{[]string{"-make", "constant", "-rate", "1e12", "-period", "10"}, 1, "delivery opportunities"},
		{[]string{"-make", "cellular", "-max", "1e6"}, 1, "delivery opportunities"},
		{[]string{"-make", "constant", "-period", "0"}, 1, "period"},
		{[]string{"-inspect", filepath.Join(t.TempDir(), "missing.trace")}, 1, "missing.trace"},
	} {
		_, stderr, code := mmTrace(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("mm-trace %v exited %d, want %d naming %q; stderr:\n%s", tc.args, code, tc.code, tc.want, stderr)
		}
	}
}

// TestWriteErrorFails writes a trace to a device that refuses the bytes:
// the failure must surface as a non-zero exit, not a "wrote" line.
func TestWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	stdout, stderr, code := mmTrace(t, "-make", "constant", "-out", "/dev/full")
	if code != 1 || strings.Contains(stdout, "wrote") {
		t.Fatalf("exit %d, stdout %q: want exit 1 and no wrote line; stderr:\n%s", code, stdout, stderr)
	}
}

func TestMakeThenInspect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "12mbps.trace")
	out, stderr, code := mmTrace(t, "-make", "constant", "-rate", "12", "-period", "1000", "-out", path)
	if code != 0 || !strings.Contains(out, "wrote "+path+": 1000 opportunities") {
		t.Fatalf("make: exit %d, stdout %q; stderr:\n%s", code, out, stderr)
	}
	out, stderr, code = mmTrace(t, "-inspect", path)
	if code != 0 || !strings.Contains(out, "12mbps.trace: 1000 opportunities") {
		t.Fatalf("inspect: exit %d, stdout %q; stderr:\n%s", code, out, stderr)
	}
}
