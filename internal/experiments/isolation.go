package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/netem"
	"repro/internal/nsim"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/webgen"
)

// IsolationResult reports the §4 isolation experiment: PLTs of a page
// loaded solo versus loaded while a second, independent shell stack
// saturates its own emulated link in the same network.
type IsolationResult struct {
	SoloPLT       sim.Time
	ConcurrentPLT sim.Time
	// CrossTraffic is the number of bulk datagrams the noisy neighbour
	// moved during the measured load.
	CrossTraffic uint64
}

// Identical reports whether the measurement was bit-identical with and
// without the neighbour — the property web-page-replay lacks (it rewrites
// host-wide DNS) and Mahimahi's namespaces guarantee.
func (r IsolationResult) Identical() bool { return r.SoloPLT == r.ConcurrentPLT }

// Isolation loads a page alone, then again while a second namespace pair
// blasts bulk traffic over its own emulated link in the same Network. Both
// arms build the load with Load's builder and differ only by the
// neighbour. The two arms are declared as two cells ("solo" and
// "concurrent" shell coordinates) so they run on the same engine as every
// other experiment — and, at two or more shards, concurrently, which is
// itself an isolation statement: two whole simulations sharing a process
// must not perturb each other either.
func Isolation(seed uint64, shards int) IsolationResult {
	page := webgen.GeneratePage(sim.NewRand(seed), webgen.WikiHowLike())
	site := webgen.Materialize(page)

	cells := []Cell{
		{Site: "wikihow-like", Shell: "solo"},
		{Site: "wikihow-like", Shell: "concurrent"},
	}
	results := runCells(shards, seed, cells, func(sh *engine.Shard, _ int, c Cell, _ uint64) isolationArm {
		spec := LoadSpec{Page: page, Site: site, DNSLatency: sim.Millisecond,
			Shells:  []shells.Shell{shells.NewDelayShell(30 * sim.Millisecond)},
			Scratch: scratchFor(sh)}
		if c.Shell == "solo" {
			return isolationArm{plt: Load(spec).PLT}
		}
		return isolationConcurrent(spec)
	})
	return IsolationResult{
		SoloPLT:       results[0].plt,
		ConcurrentPLT: results[1].plt,
		CrossTraffic:  results[1].cross,
	}
}

// isolationArm is one arm's measured PLT and, for the concurrent arm, the
// neighbour's delivered datagram count.
type isolationArm struct {
	plt   sim.Time
	cross uint64
}

// isolationConcurrent builds spec's load exactly as the solo arm does, adds
// a noisy neighbour to the same Network (same event loop) that
// continuously saturates its own link, and runs the load, returning the
// measured PLT and the neighbour's delivered datagram count.
func isolationConcurrent(spec LoadSpec) isolationArm {
	pl := build(spec)
	loop, network := pl.loop, pl.net

	// The neighbour: two namespaces with a rate-limited link, flooded.
	noisyA := network.NewNamespace("noisy-a")
	noisyB := network.NewNamespace("noisy-b")
	aAddr, bAddr := nsim.ParseAddr("172.16.0.1"), nsim.ParseAddr("172.16.0.2")
	noisyA.AddAddress(aAddr)
	noisyB.AddAddress(bAddr)
	up := netem.NewPipeline(netem.NewRateBox(loop, 10_000_000, netem.NewDropTail(64, 0)))
	ea, eb := nsim.Connect(noisyA, noisyB, up, netem.NewPipeline())
	noisyA.AddDefaultRoute(ea)
	noisyB.AddDefaultRoute(eb)
	var crossDelivered uint64
	noisyB.Bind(nsim.AddrPort{Addr: bAddr, Port: 9}, func(*nsim.Datagram) { crossDelivered++ })
	var flood func(sim.Time)
	flooding := true
	flood = func(sim.Time) {
		if !flooding {
			return
		}
		for i := 0; i < 8; i++ {
			dg := network.NewDatagram()
			dg.Src, dg.Dst = nsim.AddrPort{Addr: aAddr, Port: 9}, nsim.AddrPort{Addr: bAddr, Port: 9}
			dg.Size = netem.MTU
			noisyA.Send(dg)
		}
		loop.Schedule(sim.Millisecond, flood)
	}
	loop.Schedule(0, flood)

	// Stop the flood as the load completes so the loop drains.
	result := pl.run(0, func() { flooding = false })
	return isolationArm{plt: result.PLT, cross: crossDelivered}
}

// String renders the result.
func (r IsolationResult) String() string {
	var b strings.Builder
	b.WriteString("Isolation (§4): concurrent instances do not perturb measurements\n")
	fmt.Fprintf(&b, "  solo PLT        %v\n", r.SoloPLT)
	fmt.Fprintf(&b, "  concurrent PLT  %v  (neighbour moved %d bulk packets)\n",
		r.ConcurrentPLT, r.CrossTraffic)
	if r.Identical() {
		b.WriteString("  -> bit-identical: complete isolation\n")
	} else {
		b.WriteString("  -> MEASUREMENTS DIFFER: isolation violated\n")
	}
	return b.String()
}
