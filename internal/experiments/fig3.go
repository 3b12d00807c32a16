package experiments

import (
	"fmt"
	"strings"

	"repro/internal/browser"
	"repro/internal/engine"
	"repro/internal/inet"
	"repro/internal/nsim"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

// Fig3Config parameterizes Figure 3 (replay fidelity vs the actual web).
type Fig3Config struct {
	// Loads per arm (paper: 100 loads of www.nytimes.com).
	Loads int
	// Seed roots the scenario grid: the live web's variability and the
	// per-load RTT draws all derive from it per trial.
	Seed uint64
	// Shards is the engine shard count (<= 0: GOMAXPROCS).
	Shards int
}

// Each load's path minimum RTT is drawn uniformly from [fig3MinRTTBase,
// fig3MinRTTBase+fig3MinRTTSpread]; as in the paper, the same per-load
// minimum RTT is fed to DelayShell for the replay arms.
const (
	fig3MinRTTBase   = 20 * sim.Millisecond
	fig3MinRTTSpread = 20 * sim.Millisecond
)

// DefaultFig3 mirrors the paper's setup.
func DefaultFig3() Fig3Config {
	return Fig3Config{Loads: 100, Seed: 3, Shards: 1}
}

// Fig3Result holds the three PLT distributions of Figure 3.
type Fig3Result struct {
	Web    *stats.Sample // actual (simulated live) web
	Multi  *stats.Sample // ReplayShell, multi-origin preserved
	Single *stats.Sample // ReplayShell, single-server ablation
	// Median discrepancies vs the web (paper: 7.9% multi, 29.6% single).
	MultiGap, SingleGap float64
}

// Fig3 measures a nytimes-like page 100 times on the live-web model and
// inside ReplayShell with and without multi-origin preservation, matching
// each web load's minimum RTT in the replay arms via DelayShell. Each
// cell is one trial and runs all three arms together, because the
// arms share the trial's minimum-RTT draw; the trial's generator is seeded
// from the cell coordinates, so draws are independent of execution order.
func Fig3(cfg Fig3Config) Fig3Result {
	page := webgen.GeneratePage(sim.NewRand(11), webgen.NYTimesLike())
	site := webgen.Materialize(page)

	cells := make([]Cell, cfg.Loads)
	for i := range cells {
		cells[i] = Cell{Site: "nytimes-like", Shell: "web+multi+single", Trial: i}
	}
	results := runCells(cfg.Shards, cfg.Seed, cells, func(sh *engine.Shard, _ int, _ Cell, seed uint64) fig3Trial {
		rng := sim.NewRand(seed)
		minRTT := fig3MinRTTBase + rng.Duration(fig3MinRTTSpread+1)
		webSeed := rng.Uint64()
		web := liveLoad(sh, page, minRTT/2, webSeed)
		stack := []shells.Shell{shells.NewDelayShell(minRTT / 2)}
		sc := scratchFor(sh)
		multi := PLTms(LoadSpec{
			Page: page, Site: site, DNSLatency: sim.Millisecond, RequestCPU: DefaultRequestCPU, Shells: stack,
			CPUJitterSigma: hostJitterSigma, Rand: rng, Scratch: sc,
		})
		single := PLTms(LoadSpec{
			Page: page, Site: site, DNSLatency: sim.Millisecond, RequestCPU: DefaultRequestCPU, Shells: stack,
			SingleServer: true, CPUJitterSigma: hostJitterSigma, Rand: rng, Scratch: sc,
		})
		return fig3Trial{web, multi, single}
	})

	web, multi, single := stats.NewAccumulator(), stats.NewAccumulator(), stats.NewAccumulator()
	for _, tr := range results {
		web.Add(tr.web)
		multi.Add(tr.multi)
		single.Add(tr.single)
	}
	r := Fig3Result{
		Web:    web.Sample(),
		Multi:  multi.Sample(),
		Single: single.Sample(),
	}
	r.MultiGap = stats.AbsRelDiff(r.Multi.Median(), r.Web.Median())
	r.SingleGap = stats.AbsRelDiff(r.Single.Median(), r.Web.Median())
	return r
}

// fig3Trial is one trial's PLTs in milliseconds: the live web and the two
// replay arms.
type fig3Trial struct{ web, multi, single float64 }

// liveLoad runs one load on sh against the live-web model behind a
// DelayShell contributing the path's minimum RTT, returning PLT in
// milliseconds.
func liveLoad(sh *engine.Shard, page *webgen.Page, oneWay sim.Time, seed uint64) float64 {
	loop := sh.Loop()
	network := nsim.NewNetworkPooled(loop, sh.Pools())
	web, err := inet.New(network, inet.DefaultConfig(page, seed))
	if err != nil {
		panic("experiments: " + err.Error())
	}
	st := shells.Build(network, web.NS, AppAddr, shells.NewDelayShell(oneWay))
	b := browser.New(tcpsim.NewStackPool(st.App, sh.Segments()), web.Resolver, AppAddr, browser.DefaultOptions())
	b.UseScratch(&scratchFor(sh).browser)
	var result browser.Result
	b.Load(page, func(r browser.Result) { result = r })
	loop.Run()
	return result.PLT.Milliseconds()
}

// String renders the figure: summary plus ASCII CDF.
func (r Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: replay fidelity vs the actual web (%d loads each)\n", r.Web.Len())
	fmt.Fprintf(&b, "  Actual Web            median %7.0f ms\n", r.Web.Median())
	fmt.Fprintf(&b, "  Replay multi-origin   median %7.0f ms  (|gap| %.1f%%; paper: 7.9%%)\n",
		r.Multi.Median(), r.MultiGap*100)
	fmt.Fprintf(&b, "  Replay single server  median %7.0f ms  (|gap| %.1f%%; paper: 29.6%%)\n",
		r.Single.Median(), r.SingleGap*100)
	b.WriteString(stats.ASCIICDF(60, 12,
		[]string{"Actual Web", "Replay multi-origin", "Replay single server"},
		[]*stats.Sample{r.Web, r.Multi, r.Single}))
	return b.String()
}
