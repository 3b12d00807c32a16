package experiments

import (
	"fmt"
	"strings"

	"repro/internal/archive"
	"repro/internal/browser"
	"repro/internal/engine"
	"repro/internal/netem"
	"repro/internal/nsim"
	"repro/internal/replayshell"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/tcpsim"
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
// blasts bulk traffic over its own emulated link in the same Network. The
// two arms are declared as two cells ("solo" and "concurrent" shell
// coordinates) so they run on the same engine as every other experiment —
// and, at two or more shards, concurrently, which is itself an isolation
// statement: two whole simulations sharing a process must not perturb each
// other either.
func Isolation(seed uint64, shards int) IsolationResult {
	page := webgen.GeneratePage(sim.NewRand(seed), webgen.WikiHowLike())
	site := webgen.Materialize(page)
	mkShells := func() []shells.Shell {
		return []shells.Shell{shells.NewDelayShell(30 * sim.Millisecond)}
	}

	cells := []Cell{
		{Site: "wikihow-like", Shell: "solo"},
		{Site: "wikihow-like", Shell: "concurrent"},
	}
	results := runCells(shards, seed, cells, func(sh *engine.Shard, _ int, c Cell, _ uint64) []float64 {
		if c.Shell == "solo" {
			plt := Load(LoadSpec{Page: page, Site: site, DNSLatency: sim.Millisecond, Shells: mkShells(),
				Scratch: scratchFor(sh)}).PLT
			return []float64{float64(plt)}
		}
		plt, cross := isolationConcurrent(sh, page, site, mkShells())
		return []float64{float64(plt), float64(cross)}
	})
	return IsolationResult{
		SoloPLT:       sim.Time(results[0][0]),
		ConcurrentPLT: sim.Time(results[1][0]),
		CrossTraffic:  uint64(results[1][1]),
	}
}

// isolationConcurrent runs the measured load on sh while a noisy neighbour
// in the same Network (same event loop) continuously saturates its own
// link, returning the measured PLT and the neighbour's delivered datagram
// count.
func isolationConcurrent(sh *engine.Shard, page *webgen.Page, site *archive.Site, shellList []shells.Shell) (sim.Time, uint64) {
	loop := sh.Loop()
	network := nsim.NewNetworkPooled(loop, sh.Pools())
	replay, err := replayshell.New(network, replayshell.Config{
		Site: site, DNSLatency: sim.Millisecond,
	})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	st := shells.Build(network, replay.NS, AppAddr, shellList...)
	b := browser.New(tcpsim.NewStack(st.App), replay.Resolver, AppAddr, browser.DefaultOptions())

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
			noisyA.Send(&nsim.Datagram{
				Src: nsim.AddrPort{Addr: aAddr, Port: 9}, Dst: nsim.AddrPort{Addr: bAddr, Port: 9},
				Size: netem.MTU,
			})
		}
		loop.Schedule(sim.Millisecond, flood)
	}
	loop.Schedule(0, flood)

	var result browser.Result
	b.Load(page, func(r browser.Result) {
		result = r
		flooding = false // stop the flood so the loop drains
	})
	loop.Run()

	return result.PLT, crossDelivered
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
