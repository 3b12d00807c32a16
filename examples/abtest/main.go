// ABTest: use the toolkit the way protocol and browser designers use
// Mahimahi (paper §1) — hold the recorded site and network fixed, vary one
// client knob, and compare page load times reproducibly.
//
// Here the knob is the browser's per-origin connection limit (2/6/12
// connections), swept across three network conditions. Because replay is
// deterministic, differences are exactly attributable to the knob.
//
//	go run ./examples/abtest
package main

import (
	"fmt"
	"log"

	"repro/internal/browser"
	"repro/internal/experiments"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/webgen"
)

func main() {
	page := webgen.GeneratePage(sim.NewRand(9), webgen.CNBCLike())
	fmt.Printf("site: %d resources, %d origins, %d KB\n\n",
		len(page.Resources), page.ServerCount(), page.TotalBytes()/1024)

	type cond struct {
		name  string
		rate  int64
		delay sim.Time
	}
	conds := []cond{
		{"DSL (5 Mbit/s, 30ms)", 5_000_000, 30 * sim.Millisecond},
		{"Cable (25 Mbit/s, 15ms)", 25_000_000, 15 * sim.Millisecond},
		{"3G-ish (2 Mbit/s, 100ms)", 2_000_000, 100 * sim.Millisecond},
	}
	fmt.Printf("%-26s %10s %10s %10s\n", "network", "2 conns", "6 conns", "12 conns")
	for _, c := range conds {
		fmt.Printf("%-26s", c.name)
		for _, conns := range []int{2, 6, 12} {
			fmt.Printf(" %8.0fms", measure(page, c.rate, c.delay, conns))
		}
		fmt.Println()
	}
	fmt.Println("\nMore connections help most when bandwidth is plentiful and RTT")
	fmt.Println("cheap; on slow or high-latency paths the extra handshakes and")
	fmt.Println("congestion-window restarts eat the gains — measured, not guessed.")
}

func measure(page *webgen.Page, rate int64, delay sim.Time, conns int) float64 {
	tr, err := trace.Constant(rate, 2000)
	if err != nil {
		log.Fatal(err)
	}
	opts := browser.DefaultOptions()
	opts.ConnsPerHost = conns
	return experiments.PLTms(experiments.LoadSpec{
		Page: page,
		Shells: []shells.Shell{
			shells.NewDelayShell(delay),
			shells.NewLinkShell(tr, tr),
		},
		DNSLatency: sim.Millisecond,
		Browser:    &opts,
	})
}
