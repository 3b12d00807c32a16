package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/webgen"
)

// TestMain lets the tests re-execute this test binary as mm-replay itself.
func TestMain(m *testing.M) {
	if os.Getenv("MM_REPLAY_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mmReplay runs mm-replay with args and returns its stdout, stderr and exit
// code.
func mmReplay(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MM_REPLAY_AS_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("mm-replay %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

func TestRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-servers", "0"}, "-servers"},
		{[]string{"-servers", "-1"}, "-servers"},
		{[]string{"-loads", "0"}, "-loads"},
		{[]string{"-loads", "-2"}, "-loads"},
		{[]string{"-delay", "-5"}, "-delay"},
		{[]string{"-rate", "-3"}, "-rate"},
		{[]string{"-rate", "NaN"}, "-rate"},
	} {
		stdout, stderr, code := mmReplay(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("mm-replay %v exited %d with stdout %q, want 2 naming %q and no load; stderr:\n%s",
				tc.args, code, stdout, tc.want, stderr)
		}
	}
}

// recordArchive records the page spec names the way mm-record does and
// saves it in a temporary directory, with spec in its page.spec.
func recordArchive(t *testing.T, spec webgen.Spec) (dir string, site *archive.Site) {
	t.Helper()
	page := spec.Page()
	rec, err := core.NewSession().NewRecord(core.RecordConfig{
		Page:   page,
		Shells: []shells.Shell{shells.NewDelayShell(20 * sim.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	site, _ = rec.Record()
	dir = filepath.Join(t.TempDir(), page.Name)
	if err := archive.SaveSite(dir, site); err != nil {
		t.Fatal(err)
	}
	writeSpec(t, dir, spec)
	return dir, site
}

// writeSpec saves spec as dir's page.spec.
func writeSpec(t *testing.T, dir string, spec webgen.Spec) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, webgen.SpecFile), []byte(spec.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// threeOrigins is a page unlike mm-replay's default -servers 12 one, with a
// resource count of its own, so a replay that read the flags instead of
// page.spec would miss most of the archive.
var threeOrigins = webgen.Spec{Site: "www.example.com", Servers: 3, Resources: 40, Seed: 1}

// TestReplaysRecordedArchive replays a recorded archive with mm-replay at
// its default flags: the page comes from page.spec, and every load must
// finish without errors.
func TestReplaysRecordedArchive(t *testing.T) {
	dir, site := recordArchive(t, threeOrigins)
	out, stderr, code := mmReplay(t, "-archive", dir, "-delay", "30", "-rate", "12", "-loads", "2")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"loaded archive " + dir + ": " + strconv.Itoa(len(site.Exchanges)) + " exchanges",
		"load 1: PLT", "load 2: PLT", "summary: median",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "load ") && !strings.HasSuffix(line, ", 0 errors") {
			t.Errorf("load with errors: %s", line)
		}
	}
}

// TestMismatchedArchiveFails replays a 3-origin recording whose page.spec
// claims 12 servers. Most of that page's resources sit on hosts the
// archive lacks: the load must still finish, report them, and exit 1
// naming page.spec, where the page comes from. No resource may take over
// 10 s: one on a port the archive serves only for another address is
// refused at once, not after the dialer's SYN retransmissions.
func TestMismatchedArchiveFails(t *testing.T) {
	dir, _ := recordArchive(t, webgen.Spec{Site: "www.example.com", Servers: 3, Seed: 1})
	writeSpec(t, dir, webgen.Spec{Site: "www.example.com", Servers: 12, Seed: 1})
	out, stderr, code := mmReplay(t, "-archive", dir, "-v")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	if !strings.Contains(out, "load 1: PLT") || strings.Contains(out, " 0 resources") {
		t.Errorf("the load did not finish:\n%s", out)
	}
	if !strings.Contains(stderr, webgen.SpecFile) {
		t.Errorf("stderr does not name %s:\n%s", webgen.SpecFile, stderr)
	}
	timing := regexp.MustCompile(`(?m)^\s*[0-9.]+ms \+\s*([0-9.]+)ms `)
	matches := timing.FindAllStringSubmatch(out, -1)
	if len(matches) == 0 {
		t.Fatalf("no per-resource timings printed:\n%s", out)
	}
	for _, m := range matches {
		if ms, err := strconv.ParseFloat(m[1], 64); err != nil || ms > 10_000 {
			t.Errorf("resource timing %q: want at most 10 s", strings.TrimSpace(m[0]))
		}
	}
}

// TestRejectsCraftedArchive: an archive file whose response-length declares
// 2,000,000,000 bytes it does not hold exits 1 naming the bad format,
// instead of reserving the declared length.
func TestRejectsCraftedArchive(t *testing.T) {
	dir := t.TempDir()
	const req = "GET / HTTP/1.1\r\n\r\n"
	raw := "MAHIMAHI-GO 1\nserver: 1.2.3.4:80\nrequest-length: " + strconv.Itoa(len(req)) +
		"\nresponse-length: 2000000000\n\n" + req
	if err := os.WriteFile(filepath.Join(dir, "save.000000"), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := mmReplay(t, "-archive", dir)
	if code != 1 || !strings.Contains(stderr, "bad file format") || stdout != "" {
		t.Errorf("exited %d with stdout %q, want 1 naming the bad file format; stderr:\n%s", code, stdout, stderr)
	}
}

// TestRejectsEmptyArchive: a directory holding no recorded exchanges exits
// 1 naming it, instead of replaying a site with nothing to serve.
func TestRejectsEmptyArchive(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, code := mmReplay(t, "-archive", dir)
	if code != 1 || !strings.Contains(stderr, "no recorded exchanges") || strings.Contains(stdout, "load 1") {
		t.Errorf("exited %d with stdout %q, want 1 naming the empty archive and no load; stderr:\n%s", code, stdout, stderr)
	}
}

// TestRejectsMissingOrMalformedSpec: an archive without a readable
// page.spec exits 1 naming it, before any load.
func TestRejectsMissingOrMalformedSpec(t *testing.T) {
	dir, _ := recordArchive(t, threeOrigins)
	path := filepath.Join(dir, webgen.SpecFile)
	for _, tc := range []struct {
		name, text string
	}{
		{"missing", ""},
		{"malformed", "site www.example.com\nservers 0\nresources 0\nseed 1\n"},
		{"oversized", threeOrigins.String() + strings.Repeat("#", 5000)},
	} {
		os.Remove(path)
		if tc.text != "" {
			if err := os.WriteFile(path, []byte(tc.text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		stdout, stderr, code := mmReplay(t, "-archive", dir)
		if code != 1 || !strings.Contains(stderr, webgen.SpecFile) || strings.Contains(stdout, "load 1") {
			t.Errorf("%s page.spec: exited %d with stdout %q, want 1 naming %s and no load; stderr:\n%s",
				tc.name, code, stdout, webgen.SpecFile, stderr)
		}
	}
}
