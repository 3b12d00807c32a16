// mm-record records a page load into an archive directory, the analogue of
// Mahimahi's RecordShell invocation:
//
//	mm-record -site www.example.com -servers 12 -out ./recorded
//
// The page itself is synthesized (there is no live Internet in this
// toolkit); the record path still exercises the full man-in-the-middle
// pipeline: browser → shells → transparent proxy → simulated origins.
//
// Beside the archive's save.* files it writes page.spec, the -site,
// -servers, -resources and -seed the page was generated from, so
// mm-replay -archive rebuilds the same page.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/webgen"
)

func main() {
	site := flag.String("site", "www.example.com", "site name to synthesize and record")
	servers := flag.Int("servers", 12, "distinct origin servers on the page")
	resources := flag.Int("resources", 0, "approximate resource count (0 = derived from servers)")
	seed := flag.Uint64("seed", 1, "generation seed")
	delayMS := flag.Int("delay", 20, "one-way path delay during recording, ms")
	out := flag.String("out", "recorded", "output directory (a per-site folder is created inside)")
	flag.Parse()
	if *servers < 1 {
		usageErr("-servers %d: want at least 1 origin", *servers)
	}
	if *resources < 0 {
		usageErr("-resources %d: want 0 (derived) or more", *resources)
	}
	if *delayMS < 0 {
		usageErr("-delay %d: want a non-negative delay", *delayMS)
	}

	spec := webgen.Spec{Site: *site, Servers: *servers, Resources: *resources, Seed: *seed}
	if _, err := webgen.ParseSpec(spec.String()); err != nil {
		usageErr("-site %q: want a host name, which page.spec can hold", *site)
	}
	page := spec.Page()

	session := core.NewSession()
	rec, err := session.NewRecord(core.RecordConfig{
		Page:   page,
		Shells: []shells.Shell{shells.NewDelayShell(sim.Time(*delayMS) * sim.Millisecond)},
	})
	if err != nil {
		fatal(err)
	}
	recorded, result := rec.Record()
	if result.Errors > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d resources errored during recording\n", result.Errors)
	}

	dir := filepath.Join(*out, page.Name)
	if err := archive.SaveSite(dir, recorded); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, webgen.SpecFile), []byte(spec.String()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %s: %d exchanges from %d origins (%d KB) in %v (virtual)\n",
		page.Name, len(recorded.Exchanges), len(recorded.Origins()),
		recorded.BytesTotal()/1024, result.PLT.Duration().Round(time.Millisecond))
	fmt.Printf("saved to %s\n", dir)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mm-record:", err)
	os.Exit(1)
}

// usageErr reports bad command-line input and exits 2, as flag does.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mm-record: "+format+"\n", args...)
	os.Exit(2)
}
