// Multiorigin: the paper's headline experiment in miniature — how much do
// measurements skew when a replay collapses a website's many origin
// servers onto one?
//
// For one site, sweep link rate × delay and print the PLT of faithful
// multi-origin replay next to the single-server ablation, reproducing the
// structure of the paper's Table 2.
//
//	go run ./examples/multiorigin
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/experiments"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/webgen"
)

func main() {
	page := webgen.GeneratePage(sim.NewRand(3), webgen.NYTimesLike())
	fmt.Printf("site: %d resources across %d origins, %d KB\n\n",
		len(page.Resources), page.ServerCount(), page.TotalBytes()/1024)

	fmt.Printf("%-22s %12s %12s %8s\n", "configuration", "multi-origin", "single-srv", "diff")
	for _, rate := range []int64{1_000_000, 14_000_000, 25_000_000} {
		for _, delay := range []sim.Time{30 * sim.Millisecond, 120 * sim.Millisecond} {
			multi := measure(page, rate, delay, false)
			single := measure(page, rate, delay, true)
			diff := math.Abs(single-multi) / multi * 100
			fmt.Printf("%3d Mbit/s, %3.0fms delay %10.0fms %10.0fms %7.1f%%\n",
				rate/1_000_000, delay.Milliseconds(), multi, single, diff)
		}
	}
	fmt.Println("\nAt 1 Mbit/s the link hides the topology; at higher rates the")
	fmt.Println("single-server collapse visibly distorts page load time (Table 2).")
}

func measure(page *webgen.Page, rate int64, delay sim.Time, single bool) float64 {
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
		SingleServer: single,
		DNSLatency:   sim.Millisecond,
		RequestCPU:   10 * sim.Millisecond,
	})
}
