package experiments

import (
	"fmt"
	"strings"

	"repro/internal/archive"
	"repro/internal/engine"
	"repro/internal/netem"
	"repro/internal/nsim"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpsim"
	"repro/internal/trace"
	"repro/internal/webgen"
)

// BufferbloatConfig declares the bufferbloat experiment: a long bulk TCP
// flow shares a trace-driven link with a page load, swept over qdisc
// {droptail-deep, droptail-shallow, codel, codel-ecn, pie, pie-ecn,
// fq_codel, fq_codel-ecn} × link trace {constant, cellular}. This is the
// scenario class the qdisc layer exists for — with only droptail queues,
// self-inflicted queueing delay under deep buffers (and the AQMs' answers
// to it) was unreachable; the ECN cells additionally exercise the marking
// feedback loop, where the AQM signals congestion without destroying
// packets and the transports cut their windows on echoed CE marks instead
// of retransmitting. The fq_codel cells separate the bulk flow from the
// page's flows entirely: each gets its own CoDel-controlled bucket, so the
// fairness table's web-flow delay no longer depends on the bulk flow's
// standing queue at all.
type BufferbloatConfig struct {
	// Seed roots the scenario grid and the cellular trace synthesis.
	Seed uint64
	// Shards is the engine shard count (<= 0: GOMAXPROCS).
	Shards int
	// BulkBytes is the competing long flow's payload size.
	BulkBytes int
	// HeadStart is how long the bulk flow runs before the page load
	// starts, so the measured load meets an already-standing queue.
	HeadStart sim.Time
}

// The bufferbloat link: a 20 ms one-way delay either side of the queue,
// and the two droptail buffer depths. The AQM cells use the deep physical
// buffer behind the control law, with their RFC defaults (CoDel RFC 8289,
// PIE RFC 8033, fq_codel RFC 8290: 1024 buckets, one-MTU quantum). The
// contention grid uses the same delay and buffer depths.
const (
	bloatOneWay         = 20 * sim.Millisecond
	bloatDeepPackets    = 600
	bloatShallowPackets = 32
)

// DefaultBufferbloat returns the reference configuration: a 12 Mbit/s
// link (≈1 packet/ms, so a 600-packet buffer is ≈600 ms of standing
// delay), a 16 MB bulk flow, and a 3 s head start — long enough that the
// AQM control loop has converged past the bulk flow's slow-start
// overshoot before the measured load begins.
func DefaultBufferbloat() BufferbloatConfig {
	return BufferbloatConfig{
		Seed:      11,
		BulkBytes: 16 << 20,
		HeadStart: 3 * sim.Second,
		Shards:    1,
	}
}

// BufferbloatRow is one (link, qdisc) cell's measurements.
type BufferbloatRow struct {
	Link  string
	Qdisc netem.QdiscSpec
	// PLTms is the page load time under contention.
	PLTms float64
	// P95SojournMs and MeanSojournMs summarize the downlink queue's
	// per-packet queueing delay over the whole run.
	P95SojournMs  float64
	MeanSojournMs float64
	// TailDrops and AQMDrops split the downlink queue's losses by cause;
	// AQMMarks counts control-law firings resolved by CE-marking instead
	// (the ECN cells).
	TailDrops, AQMDrops, AQMMarks uint64
	// MaxQueue is the downlink backlog high-water mark in packets.
	MaxQueue int
	// BulkBytes is what the competing flow actually moved.
	BulkBytes int
	// Fairness is the cell's per-flow attribution of the downlink queue.
	Fairness FairnessRow
}

// FairnessRow attributes one cell's downlink queue to the bulk flow versus
// the page's flows, from the per-flow telemetry QueueStats tracks (every
// packet carries its connection's Flow id). The bulk flow is the flow that
// moved the most bytes through the queue; every other flow is "web". All
// fields are sums over flows, so the attribution is order-free.
type FairnessRow struct {
	// Flows is the number of distinct flows the queue saw.
	Flows int
	// BulkBytes and WebBytes split the queue's delivered bytes.
	BulkBytes, WebBytes uint64
	// BulkMeanQMs and WebMeanQMs are per-class mean sojourn times.
	BulkMeanQMs, WebMeanQMs float64
	// BulkP95QMs and WebP95QMs are per-class p95 sojourn times, from the
	// per-flow distributions TrackFlows records. BulkP95QMs is the
	// bulk flow's own p95; WebP95QMs is the median web flow's p95 (see
	// medianFlowP95) — the typical page flow's tail queueing delay, the
	// number flow queueing exists to decouple from the bulk backlog.
	BulkP95QMs, WebP95QMs float64
	// BulkDrops/WebDrops and BulkMarks/WebMarks split the queue's losses
	// and CE marks (tail + AQM drops combined).
	BulkDrops, WebDrops uint64
	BulkMarks, WebMarks uint64
	// Jain is Jain's fairness index over the two classes' delivered bytes:
	// 1.0 when bulk and web moved equal bytes, 0.5 when one starved.
	Jain float64
}

// BulkShare is the bulk flow's fraction of delivered bytes.
func (f FairnessRow) BulkShare() float64 {
	total := f.BulkBytes + f.WebBytes
	if total == 0 {
		return 0
	}
	return float64(f.BulkBytes) / float64(total)
}

// BufferbloatResult is the full sweep in grid order (link-major).
type BufferbloatResult struct {
	Rows []BufferbloatRow
}

// bufferbloatQdiscs enumerates the qdisc arm of the grid.
func bufferbloatQdiscs() []netem.QdiscSpec {
	codel := netem.QdiscSpec{Kind: netem.QdiscCoDel, Packets: bloatDeepPackets}
	codelECN := codel
	codelECN.ECN = true
	pie := netem.QdiscSpec{Kind: netem.QdiscPIE, Packets: bloatDeepPackets}
	pieECN := pie
	pieECN.ECN = true
	fq := netem.QdiscSpec{Kind: netem.QdiscFQCoDel, Packets: bloatDeepPackets}
	fqECN := fq
	fqECN.ECN = true
	return []netem.QdiscSpec{
		{Packets: bloatDeepPackets},    // droptail-deep: the bufferbloated buffer
		{Packets: bloatShallowPackets}, // droptail-shallow: low delay, lossy
		codel,                          // AQM on the deep buffer, dropping
		codelECN,                       // same law, CE-marking ECT packets
		pie,                            // RFC 8033 on the deep buffer, dropping
		pieECN,                         // PIE marking
		fq,                             // RFC 8290: per-flow CoDel + DRR
		fqECN,                          // fq_codel marking
	}
}

// Bufferbloat runs the grid on the sharded engine. Cells are fully
// deterministic (the only randomness, the cellular trace, is synthesized
// once from the root seed), so results are byte-identical at any shard
// count — including the codel cells, whose control law runs entirely on
// the virtual clock.
func Bufferbloat(cfg BufferbloatConfig) BufferbloatResult {
	page := webgen.GeneratePage(sim.NewRand(sim.DeriveSeed(cfg.Seed, "page")), webgen.WikiHowLike())
	site := webgen.Materialize(page)
	payload := make([]byte, cfg.BulkBytes)

	constLink, err := trace.Constant(12_000_000, 2000)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	cellDown, err := trace.Cellular(sim.NewRand(sim.DeriveSeed(cfg.Seed, "cellular")),
		6_000_000, 20_000_000, 100, 4000)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	type link struct {
		name     string
		up, down *trace.Trace
	}
	links := []link{
		{"const12", constLink, constLink},
		{"cellular", constLink, cellDown},
	}
	qdiscs := bufferbloatQdiscs()

	var cells []Cell
	for _, l := range links {
		for _, spec := range qdiscs {
			cells = append(cells, Cell{Site: "bloat", Shell: l.name + "+" + spec.String()})
		}
	}
	rows := runCells(cfg.Shards, cfg.Seed, cells, func(sh *engine.Shard, i int, _ Cell, _ uint64) BufferbloatRow {
		l := links[i/len(qdiscs)]
		row := bufferbloatCell(sh, cfg, page, site, payload, l.up, l.down, qdiscs[i%len(qdiscs)])
		row.Link = l.name
		return row
	})
	return BufferbloatResult{Rows: rows}
}

// bufferbloatCell runs one cell on sh: a page load over a shaped link
// whose downlink qdisc is spec, while a bulk flow from a sink namespace
// behind the replay servers saturates the same link. The caller names the
// row's Link.
func bufferbloatCell(sh *engine.Shard, cfg BufferbloatConfig, page *webgen.Page, site *archive.Site,
	payload []byte, up, down *trace.Trace, spec netem.QdiscSpec) BufferbloatRow {
	downQ := spec.Build()
	// The sojourn histogram covers the whole run: the bulk flow's
	// slow-start transient, the AQM's converged phase, and the page's own
	// burst all weigh in, so the percentiles compare what each discipline
	// does with the same contended seconds.
	sojourn := stats.NewAccumulator()
	downQ.QueueStats().RecordSojourn(sojourn)
	// Per-flow attribution on the contended queue feeds the fairness table;
	// the per-flow sojourn distributions feed its per-class p95 columns.
	downQ.QueueStats().TrackFlows()
	// The ECN cells negotiate ECN on every connection — client, replay
	// servers and bulk sender — so all traffic through the marking AQM is
	// ECT and the control law resolves by marking, never dropping.
	pl := build(LoadSpec{
		Page: page, Site: site, DNSLatency: sim.Millisecond, RequestCPU: DefaultRequestCPU,
		Shells:  []shells.Shell{&bloatLink{up: up, down: down, downQ: downQ}},
		ECN:     spec.ECN,
		Scratch: scratchFor(sh),
	})
	world := pl.replay.NS

	// The bulk sink lives in its own namespace one unshaped hop behind the
	// replay servers, so its data shares the shaped downlink with the page.
	bulkAddr := nsim.ParseAddr("100.64.0.9")
	bulkNS := pl.net.NewNamespace("bulk")
	bulkNS.AddAddress(bulkAddr)
	b2w, w2b := nsim.Connect(bulkNS, world, nil, nil)
	bulkNS.AddDefaultRoute(b2w)
	world.AddRoute(bulkAddr, 32, w2b)
	bulkAP := nsim.AddrPort{Addr: bulkAddr, Port: 5001}
	bulkStack := tcpsim.NewStackPool(bulkNS, sh.Segments())
	bulkStack.SetECN(spec.ECN)
	if err := bulkStack.Listen(bulkAP, func(c *tcpsim.Conn) {
		c.OnData(func([]byte) {})
		c.WriteStable(payload)
		c.Close()
	}); err != nil {
		panic("experiments: " + err.Error())
	}

	// Client side: the browser's stack also carries the bulk download.
	bulkGot := 0
	pl.loop.Schedule(0, func(sim.Time) {
		conn, err := pl.stack.Dial(AppAddr, bulkAP)
		if err != nil {
			panic("experiments: " + err.Error())
		}
		conn.OnData(func(p []byte) { bulkGot += len(p) })
		conn.Close() // half-close: the server still writes the payload
	})
	result := pl.run(cfg.HeadStart, nil)

	qs := downQ.QueueStats()
	s := sojourn.Sample()
	return BufferbloatRow{
		Qdisc:         spec,
		PLTms:         result.PLT.Milliseconds(),
		P95SojournMs:  s.Percentile(95),
		MeanSojournMs: s.Mean(),
		TailDrops:     qs.TailDrops,
		AQMDrops:      qs.AQMDrops,
		AQMMarks:      qs.AQMMarks,
		MaxQueue:      qs.MaxLen,
		BulkBytes:     bulkGot,
		Fairness:      fairnessRow(qs),
	}
}

// bloatLink is the cell's one shaped hop between the app and the world:
// the one-way delay and a trace-driven link in each direction. Only the
// downlink discipline is swept, and the cell builds and instruments it
// before traffic flows, so a bloatLink serves one Build. The uplink
// (requests and ACKs, a trickle next to the bulk data) keeps the default
// unbounded droptail queue so the qdisc arms differ in exactly one
// variable.
type bloatLink struct {
	up, down *trace.Trace
	downQ    netem.Qdisc
}

// Name implements shells.Shell.
func (l *bloatLink) Name() string { return "bloat" }

// Boxes implements shells.Shell.
func (l *bloatLink) Boxes(loop *sim.Loop) (netem.Box, netem.Box) {
	up := netem.NewPipeline(
		netem.NewDelayBox(loop, bloatOneWay),
		netem.NewTraceBox(loop, l.up.Cursor(), netem.QdiscSpec{}.Build()),
	)
	down := netem.NewPipeline(
		netem.NewTraceBox(loop, l.down.Cursor(), l.downQ),
		netem.NewDelayBox(loop, bloatOneWay),
	)
	return up, down
}

// fairnessRow attributes the queue's per-flow telemetry to the bulk flow
// (the flow that delivered the most bytes; ties go to the lowest id) versus
// everything else.
func fairnessRow(qs *netem.QueueStats) FairnessRow {
	var bulkID uint64
	var bulkBytes uint64
	ids := qs.Flows()
	for _, id := range ids {
		if f := qs.Flow(id); f.DequeuedBytes > bulkBytes {
			bulkID, bulkBytes = id, f.DequeuedBytes
		}
	}
	var bulk, web netem.FlowQueueStats
	var bulkSamples, webSamples []*stats.Sample
	for _, id := range ids {
		f := qs.Flow(id)
		if id == bulkID {
			bulk.Add(f)
			bulkSamples = append(bulkSamples, f.SojournSample())
		} else {
			web.Add(f)
			webSamples = append(webSamples, f.SojournSample())
		}
	}
	// Per-class sojourn distributions: flow ids are iterated in ascending
	// order, so the merged samples — and their percentiles — are
	// deterministic.
	bulkP95 := stats.MergeSamples(bulkSamples...).Percentile(95)
	webP95 := medianFlowP95(webSamples)
	// Jain's index over the two classes' delivered bytes:
	// (b+w)^2 / (2*(b^2+w^2)), 1.0 for an even split, 0.5 for starvation.
	jain := 0.0
	b, w := float64(bulk.DequeuedBytes), float64(web.DequeuedBytes)
	if b+w > 0 {
		jain = (b + w) * (b + w) / (2 * (b*b + w*w))
	}
	return FairnessRow{
		Flows:       len(ids),
		BulkBytes:   bulk.DequeuedBytes,
		WebBytes:    web.DequeuedBytes,
		BulkMeanQMs: bulk.MeanSojourn().Milliseconds(),
		WebMeanQMs:  web.MeanSojourn().Milliseconds(),
		BulkP95QMs:  bulkP95,
		WebP95QMs:   webP95,
		BulkDrops:   bulk.TailDrops + bulk.AQMDrops,
		WebDrops:    web.TailDrops + web.AQMDrops,
		BulkMarks:   bulk.AQMMarks,
		WebMarks:    web.AQMMarks,
		Jain:        jain,
	}
}

// medianFlowP95 is the median, across flows with at least one delivered
// packet, of each flow's own p95 sojourn: the typical flow's tail queueing
// delay. The aggregation is per-flow on purpose — a merged distribution is
// dominated by the few fat-object flows whose tail is their own burst
// draining at fair share (self-queueing their congestion control chose),
// while the median flow's p95 isolates what the discipline imposes on a
// flow from the outside: the shared standing queue, or nothing.
func medianFlowP95(samples []*stats.Sample) float64 {
	p95s := stats.NewAccumulator()
	for _, s := range samples {
		if s.Len() > 0 {
			p95s.Add(s.Percentile(95))
		}
	}
	return p95s.Sample().Median()
}

// String renders the sweep as two tables: the per-cell grid, then the
// per-flow fairness attribution of every cell's downlink queue.
func (r BufferbloatResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Bufferbloat: page load vs a bulk flow through one queue (CoDel target %v)\n", netem.DefaultCoDelTarget)
	fmt.Fprintf(&b, "  %-10s %-16s %9s %8s %8s %7s %7s %7s %7s\n",
		"link", "qdisc", "PLT ms", "p95q ms", "meanq ms", "taildrp", "aqmdrp", "aqmmark", "maxq")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %-16s %9.0f %8.1f %8.1f %7d %7d %7d %7d\n",
			row.Link, row.Qdisc.String(), row.PLTms, row.P95SojournMs, row.MeanSojournMs,
			row.TailDrops, row.AQMDrops, row.AQMMarks, row.MaxQueue)
	}
	b.WriteString("  -> deep droptail trades delay for loss; the AQMs hold queueing delay near target,\n")
	b.WriteString("     and their -ecn modes do it by marking ECT flows instead of dropping\n")
	b.WriteString("\nPer-flow fairness: downlink attribution, bulk flow vs the page's flows\n")
	fmt.Fprintf(&b, "  %-10s %-16s %5s %8s %8s %6s %8s %8s %8s %11s %11s %6s\n",
		"link", "qdisc", "flows", "bulk KB", "web KB", "bulk%", "q^bulk", "q^web", "p95^web", "drops(b/w)", "marks(b/w)", "jain")
	for _, row := range r.Rows {
		f := row.Fairness
		fmt.Fprintf(&b, "  %-10s %-16s %5d %8.0f %8.0f %6.1f %7.1fms %7.1fms %7.1fms %5d/%-5d %5d/%-5d %6.3f\n",
			row.Link, row.Qdisc.String(), f.Flows,
			float64(f.BulkBytes)/1024, float64(f.WebBytes)/1024, f.BulkShare()*100,
			f.BulkMeanQMs, f.WebMeanQMs, f.WebP95QMs,
			f.BulkDrops, f.WebDrops, f.BulkMarks, f.WebMarks, f.Jain)
	}
	b.WriteString("  -> droptail shares by luck of the tail; the AQMs' per-packet law spreads the\n")
	b.WriteString("     pain by arrival share, and marking shifts it off the wire entirely;\n")
	b.WriteString("     fq_codel gives each flow its own CoDel'd bucket, so web packets never\n")
	b.WriteString("     stand in the bulk flow's queue at all\n")
	return b.String()
}
