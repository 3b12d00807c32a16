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
// browser's page spec is rebuilt from -site, -servers and -seed; they must
// be the flags mm-record was given. A replayed load in which any resource
// errors or fails (a host, port or request the archive lacks) exits 1
// naming them.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
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
	siteName := flag.String("site", "www.example.com", "synthetic site name (with -archive empty)")
	servers := flag.Int("servers", 12, "synthetic origin count")
	seed := flag.Uint64("seed", 1, "synthesis seed")
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

	// The browser needs a page spec; for replayed archives we regenerate
	// the page from the same profile (the archive alone stores wire data,
	// not the dependency graph). Production use pairs the archive with its
	// page spec; synthesized pages guarantee the two match.
	profile := webgen.DefaultProfile(*siteName, *servers)
	page := webgen.GeneratePage(sim.NewRand(*seed), profile)
	var site *archive.Site
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
	}

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
	for i := 0; i < *loads; i++ {
		res := experiments.Load(experiments.LoadSpec{
			Page: page, Site: site,
			Shells:       shellList,
			SingleServer: *single,
			DNSLatency:   sim.Millisecond,
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
			fatal(fmt.Errorf("%d of %d resources did not replay from %s: the page spec comes from "+
				"-site %s -servers %d -seed %d, which must match the recording",
				bad, res.Resources, *archiveDir, *siteName, *servers, *seed))
		}
	}
	if *loads > 1 {
		s := stats.New(plts)
		fmt.Printf("summary: median %.0f ms, mean %s\n", s.Median(), s.Summary("ms"))
	}
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
