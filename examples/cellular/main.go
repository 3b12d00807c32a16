// Cellular: evaluate how a website loads over time-varying cellular links,
// the workload LinkShell was built for ("flexible enough to emulate both
// time-varying links such as cellular links and links with a fixed link
// speed", paper §2).
//
// The example synthesizes an LTE-like trace (mean-reverting rate between 2
// and 20 Mbit/s), replays a recorded site over it many times at different
// trace offsets, and compares the PLT distribution against fixed-rate
// links of the same mean rate — showing why measuring on the mean rate
// alone misestimates cellular performance.
//
//	go run ./examples/cellular
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/webgen"
)

func main() {
	page := webgen.GeneratePage(sim.NewRand(7), webgen.DefaultProfile("www.news.test", 16))
	fmt.Printf("site: %d resources, %d origins, %d KB\n\n",
		len(page.Resources), page.ServerCount(), page.TotalBytes()/1024)

	// A 60-second LTE-like trace. Different seeds model different drives
	// through the cell; each load sees a different rate pattern.
	const loads = 20
	cellPLT := make([]float64, 0, loads)
	var meanRate float64
	for i := 0; i < loads; i++ {
		cell, err := trace.Cellular(sim.NewRand(uint64(100+i)), 500_000, 20_000_000, 200, 60_000)
		if err != nil {
			log.Fatal(err)
		}
		meanRate += cell.MeanRate() / loads
		cellPLT = append(cellPLT, loadOnce(page, cell))
	}

	// Fixed-rate baseline at the cellular trace's mean rate.
	fixed, err := trace.Constant(int64(meanRate), 5000)
	if err != nil {
		log.Fatal(err)
	}
	fixedPLT := []float64{loadOnce(page, fixed)}

	cs, fs := stats.New(cellPLT), stats.New(fixedPLT)
	fmt.Printf("cellular trace (mean %.1f Mbit/s): median PLT %.0f ms, p95 %.0f ms\n",
		meanRate/1e6, cs.Median(), cs.Percentile(95))
	fmt.Printf("fixed link at the same mean rate:  PLT %.0f ms\n", fs.Median())
	fmt.Printf("\ncellular loads spread from %.0f to %.0f ms around the fixed-link\n",
		cs.Min(), cs.Max())
	fmt.Printf("value (p95/fixed = %.2fx): rate variability — invisible to a\n",
		cs.Percentile(95)/fs.Median())
	fmt.Println("mean-rate model — is what sets tail page load times on cellular.")
}

// loadOnce replays the page over the given downlink trace with a 30 ms
// one-way delay and a 1/4-rate uplink.
func loadOnce(page *webgen.Page, down *trace.Trace) float64 {
	up, err := trace.Constant(int64(down.MeanRate()/4)+1, 5000)
	if err != nil {
		log.Fatal(err)
	}
	return experiments.PLTms(experiments.LoadSpec{
		Page: page,
		Shells: []shells.Shell{
			shells.NewDelayShell(30 * sim.Millisecond),
			shells.NewLinkShell(up, down),
		},
		DNSLatency: sim.Millisecond,
	})
}
