// SPDY: the paper's opening use case — "network protocol designers who
// seek to understand the application-level impact of new multiplexing
// protocols" (§1). Mahimahi was built so experiments like this one are
// reproducible: hold the recorded site constant, emulate a grid of network
// conditions, and compare HTTP/1.1 (6 connections per origin) against a
// SPDY-style multiplexed transport (one connection per origin, many
// concurrent requests).
//
//	go run ./examples/spdy
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
	// Two variants of the same page weight: heavily domain-sharded (the
	// 2014 norm, ~30 origins) and unsharded (everything on one origin,
	// what SPDY deployment guides recommended).
	sharded := webgen.GeneratePage(sim.NewRand(13), webgen.NYTimesLike())
	unshardedProfile := webgen.NYTimesLike()
	unshardedProfile.Servers = 1
	unsharded := webgen.GeneratePage(sim.NewRand(13), unshardedProfile)

	for _, v := range []struct {
		label string
		page  *webgen.Page
	}{
		{"sharded site", sharded},
		{"unsharded site", unsharded},
	} {
		fmt.Printf("%s: %d resources, %d origins, %d KB\n",
			v.label, len(v.page.Resources), v.page.ServerCount(), v.page.TotalBytes()/1024)
		fmt.Printf("  %-26s %12s %12s %8s\n", "network", "HTTP/1.1", "SPDY-like", "speedup")
		for _, rate := range []int64{1_000_000, 14_000_000} {
			for _, delay := range []sim.Time{30 * sim.Millisecond, 150 * sim.Millisecond} {
				h1 := measure(v.page, rate, delay, browser.DefaultOptions())
				mux := measure(v.page, rate, delay, browser.MultiplexOptions())
				fmt.Printf("  %3d Mbit/s, %3.0fms delay %10.0fms %10.0fms %7.2fx\n",
					rate/1_000_000, delay.Milliseconds(), h1, mux, h1/mux)
			}
		}
		fmt.Println()
	}
	fmt.Println("On the unsharded site one multiplexed connection replaces a")
	fmt.Println("6-deep request queue and wins. On the sharded site each origin")
	fmt.Println("holds only a few resources, so SPDY's single connection just")
	fmt.Println("forfeits HTTP/1.1's six parallel slow-starts — the classic")
	fmt.Println("\"domain sharding hurts SPDY\" result, measured reproducibly.")
}

func measure(page *webgen.Page, rate int64, delay sim.Time, opts browser.Options) float64 {
	tr, err := trace.Constant(rate, 2000)
	if err != nil {
		log.Fatal(err)
	}
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
