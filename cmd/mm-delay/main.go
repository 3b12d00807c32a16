// mm-delay measures a replayed page load under a fixed one-way delay, the
// analogue of `mm-delay <ms> -- browser`:
//
//	mm-delay 50
//	mm-delay -servers 20 -loads 3 120
//
// The positional argument is the one-way delay in milliseconds, matching
// Mahimahi's CLI.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/webgen"
)

func main() {
	servers := flag.Int("servers", 12, "synthetic origin count")
	seed := flag.Uint64("seed", 1, "synthesis seed")
	loads := flag.Int("loads", 1, "number of page loads")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mm-delay [flags] <one-way-delay-ms>")
		os.Exit(2)
	}
	ms, err := strconv.Atoi(flag.Arg(0))
	if err != nil || ms < 0 {
		usageErr("bad delay %q", flag.Arg(0))
	}
	if *servers < 1 {
		usageErr("-servers %d: want at least 1 origin", *servers)
	}
	if *loads < 1 {
		usageErr("-loads %d: want at least 1 load", *loads)
	}

	page := webgen.GeneratePage(sim.NewRand(*seed), webgen.DefaultProfile("www.example.com", *servers))
	scratch := experiments.NewScratch()
	for i := 0; i < *loads; i++ {
		res := experiments.Load(experiments.LoadSpec{
			Page:       page,
			Shells:     []shells.Shell{shells.NewDelayShell(sim.Time(ms) * sim.Millisecond)},
			DNSLatency: sim.Millisecond,
			Scratch:    scratch,
		})
		fmt.Printf("delay %dms load %d: PLT %v (%d resources, %d KB)\n",
			ms, i+1, res.PLT.Duration().Round(time.Millisecond), res.Resources, res.Bytes/1024)
	}
}

// usageErr reports bad command-line input and exits 2, as flag does.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mm-delay: "+format+"\n", args...)
	os.Exit(2)
}
