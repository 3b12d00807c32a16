// Quickstart: record a website, save it to disk, replay it under emulated
// network conditions, and measure page load time — the full Mahimahi
// workflow in ~60 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/webgen"
)

func main() {
	// 1. A page to measure: 10 origins, ~50 resources, like a small 2014
	//    news site. (With a real Mahimahi this would be a live URL.)
	page := webgen.GeneratePage(sim.NewRand(42), webgen.DefaultProfile("www.quickstart.test", 10))
	fmt.Printf("page: %d resources across %d origins, %d KB total\n",
		len(page.Resources), page.ServerCount(), page.TotalBytes()/1024)

	// 2. RecordShell: load the page from the (simulated) live web through
	//    the man-in-the-middle proxy.
	rec, err := core.NewSession().NewRecord(core.RecordConfig{Page: page})
	if err != nil {
		log.Fatal(err)
	}
	site, liveResult := rec.Record()
	fmt.Printf("recorded: %d exchanges in %v (live web)\n",
		len(site.Exchanges), liveResult.PLT.Duration().Round(time.Millisecond))

	// 3. Persist the recording, Mahimahi-style: a folder with one file per
	//    request/response pair.
	dir := filepath.Join(os.TempDir(), "mahimahi-quickstart", page.Name)
	if err := archive.SaveSite(dir, site); err != nil {
		log.Fatal(err)
	}
	reloaded, err := archive.LoadSite(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved + reloaded archive: %s (%d origins)\n", dir, len(reloaded.Origins()))

	// 4. ReplayShell under emulated conditions: 14 Mbit/s link, 30 ms
	//    one-way delay — `mm-delay 30 mm-link 14mbps 14mbps -- browser`.
	link, err := trace.Constant(14_000_000, 2000)
	if err != nil {
		log.Fatal(err)
	}
	for _, delay := range []sim.Time{0, 30 * sim.Millisecond, 120 * sim.Millisecond} {
		res := experiments.Load(experiments.LoadSpec{
			Page: page, Site: reloaded,
			Shells: []shells.Shell{
				shells.NewDelayShell(delay),
				shells.NewLinkShell(link, link),
			},
			DNSLatency: sim.Millisecond,
		})
		fmt.Printf("replay @ 14 Mbit/s, %3v one-way delay: PLT %v (%d errors)\n",
			delay, res.PLT.Duration().Round(time.Millisecond), res.Errors)
	}
}
