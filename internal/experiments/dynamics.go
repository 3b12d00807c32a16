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
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/trace"
	"repro/internal/webgen"
)

// DynamicsConfig declares the dynamics experiment: a page load over a link
// whose parameters change mid-run under a netem.ScenarioScript — the chaos
// scheduler. The grid crosses fault scenario {outage, handover, ratestep}
// with AQM {codel, fq_codel, pie}, plus a Gilbert-Elliott loss-burst cell
// and two droptail→codel hot-swap cells (hold and flush drain). Every
// mutation fires at a scripted virtual instant, so a run with faults is
// exactly as reproducible as one without: transition transcripts and
// per-phase queue epochs are part of the byte-identical artifact.
type DynamicsConfig struct {
	// Seed roots the page synthesis and the handover cell's LTE trace.
	Seed uint64
	// Shards is the sharded engine's lane count (<= 0 = GOMAXPROCS).
	Shards int
}

// The grid's link and fault timeline. The shaped link runs at 4 Mbit/s
// (slow enough that a WikiHow-class page is still mid-load at 1 s) with a
// 20 ms one-way delay either side of a 200-packet downlink queue; the
// ratestep scenario drops it to 800 kbit/s. The outage holds the link down
// from 1 s to 4 s; the single-step scenarios (handover, ratestep, lossburst
// onset, qdisc swap) fire at 1 s, when the load is in full flight, and the
// loss burst clears at 3 s.
const (
	dynLinkRate     = 4_000_000
	dynStepRate     = 800_000
	dynOneWay       = 20 * sim.Millisecond
	dynQueuePackets = 200
	dynOutageStart  = 1 * sim.Second
	dynOutageEnd    = 4 * sim.Second
	dynMutateAt     = 1 * sim.Second
	dynLossClearAt  = 3 * sim.Second
	// dynResponseTimeout is the browser's per-connection silence deadline:
	// it turns a dead origin into a partial-page outcome instead of a
	// wedged load, so the outage cell completes.
	dynResponseTimeout = 20 * sim.Second
)

// DefaultDynamics returns the reference configuration.
func DefaultDynamics() DynamicsConfig {
	return DynamicsConfig{Seed: 17, Shards: 1}
}

// DynamicsRow is one cell's outcome: the load-level verdict plus the
// scripted-transition transcript and per-phase queue telemetry.
type DynamicsRow struct {
	Scenario string
	Qdisc    netem.QdiscSpec
	// Outcome classifies the load: "complete" (no faults cost anything),
	// "recovered" (an outage window fired but every resource was still
	// answered), "partial" (resources failed or errored; the page finished
	// degraded instead of hanging).
	Outcome string
	PLTms   float64
	// Resources/Failed/Errors are the load's fetch accounting.
	Resources, Failed, Errors int
	Transitions               []netem.Transition
	Epochs                    []netem.Epoch
}

// DynamicsResult is the full grid in cell order. Placement is the run's
// per-shard load report; it depends on the shard count, so String()
// deliberately omits it — callers print it separately as a diagnostic.
type DynamicsResult struct {
	Rows      []DynamicsRow
	Placement engine.Placement
}

// dynamicsScenarios enumerates the fault-scenario arm of the grid.
func dynamicsScenarios() []string { return []string{"outage", "handover", "ratestep"} }

// dynamicsQdiscs enumerates the AQM arm.
func dynamicsQdiscs() []netem.QdiscSpec {
	return []netem.QdiscSpec{
		{Kind: netem.QdiscCoDel, Packets: dynQueuePackets},
		{Kind: netem.QdiscFQCoDel, Packets: dynQueuePackets},
		{Kind: netem.QdiscPIE, Packets: dynQueuePackets},
	}
}

// Dynamics runs the grid on the sharded engine. Each cell's simulation is
// a pure function of its label, closed over its shard's loop, and rows
// merge index-aligned, so the artifact is byte-identical at any shard
// count and under any placement.
func Dynamics(cfg DynamicsConfig) DynamicsResult {
	page := webgen.GeneratePage(sim.NewRand(sim.DeriveSeed(cfg.Seed, "page")), webgen.WikiHowLike())
	site := webgen.Materialize(page)
	// The handover cell's two radio faces: a jittery LTE-class trace and a
	// steady wifi-class one. Synthesized once, shared read-only via Cursor.
	lte, err := trace.Cellular(sim.NewRand(sim.DeriveSeed(cfg.Seed, "lte")),
		2_000_000, 8_000_000, 100, 4000)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	wifi, err := trace.Constant(20_000_000, 2000)
	if err != nil {
		panic("experiments: " + err.Error())
	}

	scenarios := dynamicsScenarios()
	qdiscs := dynamicsQdiscs()
	var cells []string
	for _, sc := range scenarios {
		for _, spec := range qdiscs {
			cells = append(cells, sc+"+"+spec.String())
		}
	}
	codel := netem.QdiscSpec{Kind: netem.QdiscCoDel, Packets: dynQueuePackets}
	cells = append(cells,
		"lossburst+"+codel.String(),
		"aqmswap-hold+droptail",
		"aqmswap-flush+droptail",
	)

	e := engine.New(cfg.Shards)
	out := e.Run(engine.Job{Cells: cells, Run: func(sh *engine.Shard, cell int, label string) any {
		scenario := label[:strings.IndexByte(label, '+')]
		var spec netem.QdiscSpec
		switch {
		case cell < len(scenarios)*len(qdiscs):
			spec = qdiscs[cell%len(qdiscs)]
		case scenario == "lossburst":
			spec = codel
		default: // aqmswap cells start on a deep droptail
			spec = netem.QdiscSpec{Packets: dynQueuePackets}
		}
		return dynamicsCell(sh, cfg, page, site, lte, wifi, scenario, spec)
	}})

	res := DynamicsResult{Placement: e.Placement()}
	for i, v := range out {
		row := v.(DynamicsRow)
		row.Scenario = cells[i][:strings.IndexByte(cells[i], '+')]
		res.Rows = append(res.Rows, row)
	}
	return res
}

// dynamicsCell runs one cell: a page load over the shaped link while the
// scenario's script mutates it.
func dynamicsCell(sh *engine.Shard, cfg DynamicsConfig, page *webgen.Page,
	site *archive.Site, lte, wifi *trace.Trace, scenario string, spec netem.QdiscSpec) DynamicsRow {
	loop := sh.Loop()
	network := nsim.NewNetworkPooled(loop, sh.Pools())
	replay, err := replayshell.New(network, replayshell.Config{
		Site: site, DNSLatency: sim.Millisecond, RequestCPU: DefaultRequestCPU,
	})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	world := replay.NS

	// app ←(delay, shaped link)→ world; scripted gates sit at the app side
	// of both directions so an outage severs requests and responses alike.
	app := network.NewNamespace("app")
	app.AddAddress(AppAddr)
	upQ := netem.QdiscSpec{}.Build()
	downQ := spec.Build()

	upGate := netem.NewScriptedGateBox(loop, nil)
	downGate := netem.NewScriptedGateBox(loop, nil)

	script := netem.NewScenarioScript(loop)
	script.Watch(downQ)

	// The downlink bottleneck: trace-driven for the handover scenario,
	// rate-driven (mutable mid-run) for everything else.
	var downBottleneck netem.Box
	var downRate *netem.RateBox
	var downTrace *netem.TraceBox
	if scenario == "handover" {
		downTrace = netem.NewTraceBox(loop, lte.Cursor(), downQ)
		downBottleneck = downTrace
	} else {
		downRate = netem.NewRateBox(loop, dynLinkRate, downQ)
		downBottleneck = downRate
	}
	upPipe := netem.NewPipeline(netem.NewDelayBox(loop, dynOneWay))
	upPipe.Append(netem.NewRateBox(loop, dynLinkRate, upQ))
	upPipe.Append(upGate)
	downPipe := netem.NewPipeline(downBottleneck)
	lossBox := netem.NewLossBox(0, sim.NewRand(sim.DeriveSeed(cfg.Seed, "loss", scenario)))
	if scenario == "lossburst" {
		downPipe.Append(lossBox)
	}
	downPipe.Append(netem.NewDelayBox(loop, dynOneWay))
	downPipe.Append(downGate)
	inEnd, outEnd := nsim.Connect(app, world, upPipe, downPipe)
	app.AddDefaultRoute(inEnd)
	world.AddRoute(AppAddr, 32, outEnd)

	// Script the scenario's fault timeline.
	outageFired := false
	switch scenario {
	case "outage":
		script.LinkDown(dynOutageStart, upGate)
		script.LinkDown(dynOutageStart, downGate)
		script.LinkUp(dynOutageEnd, upGate, netem.DrainFlush)
		script.LinkUp(dynOutageEnd, downGate, netem.DrainFlush)
		outageFired = true
	case "handover":
		script.Handover(dynMutateAt, downTrace, wifi.Cursor(), "wifi")
	case "ratestep":
		script.RateStep(dynMutateAt, downRate, dynStepRate)
	case "lossburst":
		script.LossModelSwap(dynMutateAt, lossBox, netem.NewGilbertElliott(0.3, 0.3))
		script.LossModelSwap(dynLossClearAt, lossBox, netem.NewBernoulli(0))
	case "aqmswap-hold":
		script.SwapQdisc(dynMutateAt, downRate, netem.QdiscSpec{
			Kind: netem.QdiscCoDel, Packets: dynQueuePackets}, netem.DrainHold)
	case "aqmswap-flush":
		script.SwapQdisc(dynMutateAt, downRate, netem.QdiscSpec{
			Kind: netem.QdiscCoDel, Packets: dynQueuePackets}, netem.DrainFlush)
	default:
		panic("experiments: unknown dynamics scenario " + scenario)
	}

	// Endpoints: the client stack rides out the outage's backoff ladder
	// (the default cap gives up after ~2 min of silence; the 3 s outage
	// needs less, but the raised cap is the outage-survival contract under
	// longer scripted windows too).
	stack := tcpsim.NewStackPool(app, sh.Segments())
	stack.SetMaxRTORetries(30)
	replay.Stack.SetMaxRTORetries(30)

	opts := browser.DefaultOptions()
	opts.ResponseTimeout = dynResponseTimeout
	b := browser.New(stack, replay.Resolver, AppAddr, opts)
	var result browser.Result
	b.Load(page, func(r browser.Result) { result = r })
	loop.Run()
	script.Finish(loop.Now())

	outcome := "complete"
	switch {
	case result.Failed > 0 || result.Errors > 0:
		outcome = "partial"
	case outageFired:
		outcome = "recovered"
	}
	return DynamicsRow{
		Qdisc:       spec,
		Outcome:     outcome,
		PLTms:       result.PLT.Milliseconds(),
		Resources:   result.Resources,
		Failed:      result.Failed,
		Errors:      result.Errors,
		Transitions: script.Transitions(),
		Epochs:      script.Epochs(),
	}
}

// String renders the artifact: one block per cell — the verdict line, the
// transition transcript, the per-phase queue table. Byte-identical at any
// shard count.
func (r DynamicsResult) String() string {
	var b strings.Builder
	b.WriteString("dynamics: scripted link faults x AQM, page-load recovery\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %-14s outcome=%-9s plt=%8.1fms resources=%-3d failed=%-2d errors=%d\n",
			row.Scenario, row.Qdisc.String(), row.Outcome, row.PLTms,
			row.Resources, row.Failed, row.Errors)
		netem.RenderTranscript(&b, row.Transitions, row.Epochs)
	}
	return b.String()
}
