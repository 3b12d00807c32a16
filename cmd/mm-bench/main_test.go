package main

import (
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the tests re-execute this test binary as mm-bench itself.
func TestMain(m *testing.M) {
	if os.Getenv("MM_BENCH_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mmBench runs mm-bench with args and returns its stdout, stderr and exit
// code.
func mmBench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MM_BENCH_AS_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("mm-bench %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

func TestRejectsRemovedAndUnknownInput(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-parallel", "2", "-exp", "servers"}, "flag provided but not defined: -parallel"},
		{[]string{"-affinity", "-exp", "servers"}, "flag provided but not defined: -affinity"},
		{[]string{"-exp", "bogus"}, `unknown experiment "bogus"`},
	} {
		_, stderr, code := mmBench(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.wantErr) {
			t.Errorf("mm-bench %v exited %d, want 2 with %q; stderr:\n%s", tc.args, code, tc.wantErr, stderr)
		}
	}
}

func TestServersMatchesPaper(t *testing.T) {
	out, stderr, code := mmBench(t, "-exp", "servers")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	for _, re := range []string{`median\s+20\s`, `single-server\s+9\s`} {
		if !regexp.MustCompile(re).MatchString(out) {
			t.Errorf("output lacks %s:\n%s", re, out)
		}
	}
}

// TestShardsDoNotMoveOutput: -shards is a pure performance knob, so the
// printed artifact is byte-identical at any shard count once the
// wall-clock "[... finished in ...]" lines are dropped.
func TestShardsDoNotMoveOutput(t *testing.T) {
	render := func(shards string) string {
		out, stderr, code := mmBench(t, "-exp", "fig2", "-sites", "6", "-shards", shards)
		if code != 0 {
			t.Fatalf("-shards %s: exit %d; stderr:\n%s", shards, code, stderr)
		}
		var kept []string
		for _, line := range strings.Split(out, "\n") {
			if !strings.Contains(line, " finished in ") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	want := render("1")
	if !strings.Contains(want, "Figure 2") {
		t.Fatalf("no Figure 2 artifact:\n%s", want)
	}
	if got := render("3"); got != want {
		t.Errorf("output differs at -shards 3:\n--- 1 ---\n%s\n--- 3 ---\n%s", want, got)
	}
}
