// mm-replay replays a recorded archive and measures a page load, the
// analogue of Mahimahi's ReplayShell:
//
//	mm-replay -archive recorded/www.example.com -delay 30 -loads 5
//
// When -archive is omitted a synthetic site is generated and replayed,
// which is convenient for smoke tests. -single collapses the site onto a
// single server (the paper's §4 ablation).
//
// An archive holds wire data, not the page's dependency graph, so the
// browser's page is rebuilt from the page.spec mm-record saved beside the
// archive; -site, -servers and -seed shape only synthesized replays. A
// missing or malformed page.spec exits 1 naming it, and so does a replayed
// load in which any resource errors or fails (a host, port or request the
// archive lacks).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/archive"
	"repro/internal/experiments"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/webgen"
)

func main() {
	archiveDir := flag.String("archive", "", "recorded site directory (empty = synthesize)")
	siteName := flag.String("site", "www.example.com", "synthetic site name (synthesized replays only; -archive reads page.spec)")
	servers := flag.Int("servers", 12, "synthetic origin count (synthesized replays only)")
	seed := flag.Uint64("seed", 1, "synthesis seed (synthesized replays only)")
	delayMS := flag.Int("delay", 0, "DelayShell one-way delay, ms (0 = none)")
	rateMbps := flag.Float64("rate", 0, "LinkShell constant rate, Mbit/s per direction (0 = none)")
	single := flag.Bool("single", false, "single-server ablation mode")
	loads := flag.Int("loads", 1, "number of page loads")
	verbose := flag.Bool("v", false, "print per-resource timings")
	flag.Parse()
	if *servers < 1 {
		usageErr("-servers %d: want at least 1 origin", *servers)
	}
	if *delayMS < 0 {
		usageErr("-delay %d: want a non-negative delay", *delayMS)
	}
	if !(*rateMbps >= 0) || math.IsInf(*rateMbps, 0) {
		usageErr("-rate %v: want a finite non-negative rate", *rateMbps)
	}
	if *loads < 1 {
		usageErr("-loads %d: want at least 1 load", *loads)
	}

	// The browser needs the page's dependency graph, which the archive
	// alone does not store: a synthesized replay generates it from the
	// flags, and an archive's comes from the page.spec recorded with it.
	spec := webgen.Spec{Site: *siteName, Servers: *servers, Seed: *seed}
	var site *archive.Site
	specPath := filepath.Join(*archiveDir, webgen.SpecFile)
	if *archiveDir != "" {
		s, err := archive.LoadSite(*archiveDir)
		if err != nil {
			fatal(err)
		}
		site = s
		fmt.Printf("loaded archive %s: %d exchanges, %d origins\n",
			*archiveDir, len(s.Exchanges), len(s.Origins()))
		if len(s.Exchanges) == 0 {
			fatal(fmt.Errorf("%s holds no recorded exchanges", *archiveDir))
		}
		if spec, err = readSpec(specPath); err != nil {
			fatal(err)
		}
	}
	page := spec.Page()

	var shellList []shells.Shell
	if *delayMS > 0 {
		shellList = append(shellList, shells.NewDelayShell(sim.Time(*delayMS)*sim.Millisecond))
	}
	if *rateMbps > 0 {
		tr, err := trace.Constant(int64(*rateMbps*1e6), 2000)
		if err != nil {
			fatal(err)
		}
		shellList = append(shellList, shells.NewLinkShell(tr, tr))
	}

	var plts []float64
	scratch := experiments.NewScratch()
	for i := 0; i < *loads; i++ {
		res := experiments.Load(experiments.LoadSpec{
			Page: page, Site: site,
			Shells:       shellList,
			SingleServer: *single,
			DNSLatency:   sim.Millisecond,
			Scratch:      scratch,
		})
		plts = append(plts, res.PLT.Milliseconds())
		fmt.Printf("load %d: PLT %v, %d resources, %d KB, %d errors\n",
			i+1, res.PLT.Duration().Round(time.Millisecond), res.Resources,
			res.Bytes/1024, res.Errors)
		if *verbose {
			for _, tm := range res.Timings {
				fmt.Printf("  %8.1fms +%6.1fms %3d %s\n",
					tm.Start.Milliseconds(), (tm.Done - tm.Start).Milliseconds(),
					tm.Status, tm.URL)
			}
		}
		if bad := res.Errors + res.Failed; site != nil && bad > 0 {
			fatal(fmt.Errorf("%d of %d resources did not replay from %s: the page comes from %s, "+
				"which must describe the recorded page", bad, res.Resources, *archiveDir, specPath))
		}
	}
	if *loads > 1 {
		s := stats.New(plts)
		fmt.Printf("summary: median %.0f ms, mean %s\n", s.Median(), s.Summary("ms"))
	}
}

// readSpec reads the page spec saved beside an archive. It reads at most
// 4 KiB, far more than the spec's four lines take: a longer file does not
// parse.
func readSpec(path string) (webgen.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return webgen.Spec{}, err
	}
	defer f.Close()
	text, err := io.ReadAll(io.LimitReader(f, 4<<10))
	if err != nil {
		return webgen.Spec{}, err
	}
	spec, err := webgen.ParseSpec(string(text))
	if err != nil {
		return webgen.Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mm-replay:", err)
	os.Exit(1)
}

// usageErr reports bad command-line input and exits 2, as flag does.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mm-replay: "+format+"\n", args...)
	os.Exit(2)
}
