package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/webgen"
)

// TestMain lets the tests re-execute this test binary as mm-record itself.
func TestMain(m *testing.M) {
	if os.Getenv("MM_RECORD_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mmRecord runs mm-record with args and returns its stdout, stderr and exit
// code.
func mmRecord(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MM_RECORD_AS_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("mm-record %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

func TestRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-servers", "0"}, "-servers"},
		{[]string{"-servers", "-1"}, "-servers"},
		{[]string{"-delay", "-5"}, "-delay"},
		{[]string{"-resources", "-1"}, "-resources"},
	} {
		stdout, stderr, code := mmRecord(t, append([]string{"-out", dir}, tc.args...)...)
		if code != 2 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("mm-record %v exited %d with stdout %q, want 2 naming %q and no recording; stderr:\n%s",
				tc.args, code, stdout, tc.want, stderr)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("rejected runs left %d entries in the output directory (%v)", len(entries), err)
	}
}

// TestRecordThenReplay records a site with mm-record, loads the saved
// archive back and replays it: every resource of the page must load.
func TestRecordThenReplay(t *testing.T) {
	dir := t.TempDir()
	out, stderr, code := mmRecord(t, "-servers", "3", "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	siteDir := filepath.Join(dir, "www.example.com")
	if !strings.Contains(out, "recorded www.example.com") || !strings.Contains(out, "saved to "+siteDir) {
		t.Fatalf("output:\n%s", out)
	}
	site, err := archive.LoadSite(siteDir)
	if err != nil {
		t.Fatal(err)
	}
	page := webgen.GeneratePage(sim.NewRand(1), webgen.DefaultProfile("www.example.com", 3))
	replay, err := core.NewSession().NewReplay(core.ReplayConfig{Page: page, Site: site, DNSLatency: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res := replay.LoadPage()
	if res.Errors != 0 || res.Resources != len(site.Exchanges) {
		t.Errorf("replay loaded %d resources with %d errors from %d recorded exchanges",
			res.Resources, res.Errors, len(site.Exchanges))
	}
}
