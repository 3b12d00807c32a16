package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests re-execute this test binary as mm-delay itself.
func TestMain(m *testing.M) {
	if os.Getenv("MM_DELAY_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mmDelay runs mm-delay with args and returns its stdout, stderr and exit
// code.
func mmDelay(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MM_DELAY_AS_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("mm-delay %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

func TestRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-servers", "0", "30"}, "-servers"},
		{[]string{"-servers", "-3", "30"}, "-servers"},
		{[]string{"-loads", "0", "30"}, "-loads"},
		{[]string{"-loads", "-1", "30"}, "-loads"},
		{[]string{"--", "-30"}, "bad delay"},
		{[]string{"abc"}, "bad delay"},
		{nil, "usage"},
	} {
		stdout, stderr, code := mmDelay(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("mm-delay %v exited %d with stdout %q, want 2 naming %q and no load; stderr:\n%s",
				tc.args, code, stdout, tc.want, stderr)
		}
	}
}

func TestLoadsPage(t *testing.T) {
	out, stderr, code := mmDelay(t, "-servers", "4", "-loads", "2", "30")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"delay 30ms load 1: PLT", "delay 30ms load 2: PLT"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
