package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests re-execute this test binary as mm-link itself.
func TestMain(m *testing.M) {
	if os.Getenv("MM_LINK_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mmLink runs mm-link with args and returns its stdout, stderr and exit
// code.
func mmLink(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MM_LINK_AS_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("mm-link %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

func TestRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-reorder", "1.5"}, "-reorder"},
		{[]string{"-corrupt", "2"}, "-corrupt"},
		{[]string{"-duplicate", "-0.1"}, "-duplicate"},
		{[]string{"-reorder", "NaN"}, "-reorder"},
		{[]string{"-loss-state", "0.5,0.6,0.6,0,0"}, "-loss-state"},
		{[]string{"-loss-state", "0.6,0,0,0,0.6"}, "-loss-state"},
		{[]string{"-loss-state", "0.01,0.4,0.2,0.1,0.005junk"}, "-loss-state"},
		{[]string{"-loss-state", "0.01,0.4,0.2,0.1"}, "-loss-state"},
		{[]string{"-loss-state", "0.01,0.4,0.2,0.1,0.005,0.1"}, "-loss-state"},
		{[]string{"-loss-state", "0.01,1.4,0.2,0.1,0.005"}, "-loss-state"},
		{[]string{"-uplink-queue", "red"}, "-uplink-queue"},
		{[]string{"-downlink-queue", "red"}, "-downlink-queue"},
		{[]string{"-servers", "0"}, "-servers"},
		{[]string{"-servers", "-3"}, "-servers"},
		{[]string{"-loads", "0"}, "-loads"},
		{[]string{"-delay", "-5"}, "-delay"},
		{[]string{"-queue", "-5"}, "-queue"},
		{[]string{"-queue-bytes", "-1"}, "-queue-bytes"},
		{[]string{"-downlink-queue", "fq_codel", "-fq-flows", "65537"}, "-fq-flows"},
		{[]string{"-downlink-queue", "fq_codel", "-fq-flows", "-1"}, "-fq-flows"},
		{[]string{"-reorder", "0.1", "-reorder-hold", "-5"}, "-reorder-hold"},
		{[]string{"-reorder-hold", "0"}, "-reorder-hold"},
		{[]string{"-downlink-queue", "codel", "-codel-target", "-5"}, "-codel-target"},
		{[]string{"-codel-target", "0"}, "-codel-target"},
		{[]string{"-codel-interval", "0"}, "-codel-interval"},
		{[]string{"-downlink-queue", "pie", "-pie-target", "-1"}, "-pie-target"},
		{[]string{"-pie-tupdate", "0"}, "-pie-tupdate"},
		{[]string{"-downlink-queue", "fq_codel", "-fq-quantum", "-3"}, "-fq-quantum"},
	} {
		args := append([]string{"-rate", "12"}, tc.args...)
		_, stderr, code := mmLink(t, args...)
		if code != 2 || !strings.Contains(stderr, tc.flag) || strings.Contains(stderr, "panic:") {
			t.Errorf("mm-link %v exited %d, want 2 naming %s without a panic; stderr:\n%s",
				args, code, tc.flag, stderr)
		}
	}
}

func TestInfiniteQueueLoads(t *testing.T) {
	out, stderr, code := mmLink(t, "-rate", "12", "-uplink-queue", "infinite", "-loads", "1")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"queues: uplink infinite", "load 1: PLT"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestRejectsOverflowingTrace: a trace whose timestamp overflows virtual
// time exits 1 naming the file, instead of looping on a negative period.
func TestRejectsOverflowingTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overflow.trace")
	if err := os.WriteFile(path, []byte("9223372036854775807\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := mmLink(t, path, path)
	if code != 1 || !strings.Contains(stderr, path) {
		t.Fatalf("mm-link %s %s exited %d, want 1 naming the file; stderr:\n%s", path, path, code, stderr)
	}
}
