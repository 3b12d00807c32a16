package experiments

import (
	"fmt"
	"strings"

	"repro/internal/netem"
	"repro/internal/nsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/trace"
)

// LinkcharConfig declares the link-character sweep: a bulk TCP download
// over each trace in the link-character corpus (LTE fades, 5G hard
// outages, WiFi contention stalls — see trace.Corpus), crossed with the
// full impairment vocabulary (clean, 4-state Markov loss, reordering,
// duplication, corruption, and a scripted mid-run reorder episode) and two
// queue disciplines. Where the bufferbloat grid sweeps what the QUEUE does
// to a clean link, this grid sweeps what the LINK does to the transport:
// spurious fast retransmits under reordering, wasted wire bytes under
// duplication, checksum losses under corruption — measured as goodput, not
// raw delivered bytes, via the DupBytesRcvd accounting.
type LinkcharConfig struct {
	// Seed roots the scenario matrix, the corpus synthesis and every
	// impairment box's draw stream.
	Seed uint64
	// Parallel is the engine worker count (see Runner.Parallel).
	Parallel int
	// BulkBytes is the downloaded payload size per cell.
	BulkBytes int
	// PeriodMS is the synthesized corpus trace length.
	PeriodMS int
	// OneWayDelay is the propagation delay either side of the link.
	OneWayDelay sim.Time
}

// DefaultLinkchar returns the reference configuration: 1 MB downloads over
// 30-second corpus traces with 20 ms one-way delay.
func DefaultLinkchar() LinkcharConfig {
	return LinkcharConfig{
		Seed:        23,
		Parallel:    1,
		BulkBytes:   1 << 20,
		PeriodMS:    30_000,
		OneWayDelay: 20 * sim.Millisecond,
	}
}

// linkcharImpair is one arm of the impairment axis: a name plus a factory
// that installs the impairment box (or nil for none) and returns a counter
// reader for the box's own activity metric.
type linkcharImpair struct {
	name string
	// build returns the box to splice in after the queue (nil for none)
	// and a closure reporting how many packets the box impaired.
	build func(loop *sim.Loop, script *netem.ScenarioScript, rng *sim.Rand) (netem.Box, func() uint64)
}

// linkcharImpairments enumerates the impairment axis. Every box draws from
// its own forked stream, so the axis arms cannot desynchronize each other.
func linkcharImpairments() []linkcharImpair {
	return []linkcharImpair{
		{"clean", func(*sim.Loop, *netem.ScenarioScript, *sim.Rand) (netem.Box, func() uint64) {
			return nil, func() uint64 { return 0 }
		}},
		{"4state", func(_ *sim.Loop, _ *netem.ScenarioScript, rng *sim.Rand) (netem.Box, func() uint64) {
			// Burst-prone chain: ~2% of packets enter a loss burst, with
			// occasional isolated single losses inside the gap period.
			l := netem.NewLossBoxModel(netem.NewMarkov4State(0.02, 0.4, 0.2, 0.1, 0.005), rng)
			return l, func() uint64 { return l.Stats().Dropped }
		}},
		{"reorder", func(loop *sim.Loop, _ *netem.ScenarioScript, rng *sim.Rand) (netem.Box, func() uint64) {
			// 30ms displacement: whole flights overtake the displaced
			// segment, driving dupack runs and spurious fast retransmits.
			// Correlation is deliberately 0: the correlated blend pulls a
			// small probability's effective rate far below its nominal
			// value (the tc-netem crandom quirk), which would leave this
			// arm inert at 3%.
			r := netem.NewReorderBox(loop, 0.03, 0, 1, 30*sim.Millisecond, rng)
			return r, r.Displaced
		}},
		{"duplicate", func(_ *sim.Loop, _ *netem.ScenarioScript, rng *sim.Rand) (netem.Box, func() uint64) {
			d := netem.NewDuplicateBox(0.05, 0, rng)
			return d, d.Duplicated
		}},
		{"corrupt", func(_ *sim.Loop, _ *netem.ScenarioScript, rng *sim.Rand) (netem.Box, func() uint64) {
			c := netem.NewCorruptBox(0.02, 0, rng)
			return c, c.Corrupted
		}},
		{"scripted-reorder", func(loop *sim.Loop, script *netem.ScenarioScript, rng *sim.Rand) (netem.Box, func() uint64) {
			// The hot-swap arm: the box starts disabled (pure passthrough),
			// a scripted step turns a reorder episode on at 200ms — early
			// enough that even the fastest corpus link is still mid-
			// download — and back off at 2s: a routing flap mid-transfer.
			r := netem.NewReorderBox(loop, 0, 0, 1, 30*sim.Millisecond, rng)
			script.ReorderStep(200*sim.Millisecond, r, 0.1, 0)
			script.ReorderStep(2*sim.Second, r, 0, 0)
			return r, r.Displaced
		}},
	}
}

// LinkcharRow is one (link, impairment, qdisc) cell's measurements.
type LinkcharRow struct {
	Link   string
	Impair string
	Qdisc  netem.QdiscSpec
	// DoneMs is the download completion time.
	DoneMs float64
	// GoodputKbps is stream bytes delivered per second — BytesReceived
	// over DoneMs, which by construction excludes duplicate wire bytes.
	GoodputKbps float64
	// DupBytes is what the receiver saw arrive more than once (spurious
	// retransmits + network duplication).
	DupBytes uint64
	// ChecksumDrops counts corrupted segments discarded at the receiver.
	ChecksumDrops uint64
	// Retransmits/FastRetransmits/Timeouts are the sender's totals.
	Retransmits, FastRetransmits, Timeouts uint64
	// Impaired is the impairment box's own activity count (packets
	// dropped, displaced, duplicated or corrupted, per the arm).
	Impaired uint64
	// TailDrops is the link queue's overflow loss.
	TailDrops uint64
}

// LinkcharResult is the full grid in link-major, impairment-middle,
// qdisc-minor order.
type LinkcharResult struct {
	Rows []LinkcharRow
}

// Linkchar runs the grid through the scenario-matrix engine. Cells are
// fully deterministic: the corpus is synthesized once from the root seed,
// and each cell's boxes draw from streams forked off the cell seed, so the
// artifact is byte-identical at any parallelism.
func Linkchar(cfg LinkcharConfig) LinkcharResult {
	corpus, err := trace.Corpus(sim.DeriveSeed(cfg.Seed, "corpus"), cfg.PeriodMS)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	upTrace, err := trace.Constant(12_000_000, 2000)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	impairs := linkcharImpairments()
	qdiscs := []netem.QdiscSpec{
		{Packets: 256},                           // droptail
		{Kind: netem.QdiscFQCoDel, Packets: 256}, // fq_codel defaults
	}
	payload := make([]byte, cfg.BulkBytes)

	m := &Matrix{Name: "linkchar", RootSeed: cfg.Seed}
	for _, l := range corpus {
		for _, imp := range impairs {
			for _, spec := range qdiscs {
				m.Cells = append(m.Cells, Cell{Site: l.Name(), Shell: imp.name + "+" + spec.String()})
			}
		}
	}
	perLink := len(impairs) * len(qdiscs)
	m.Run = func(i int, c Cell, seed uint64) []float64 {
		l := corpus[i/perLink]
		imp := impairs[(i%perLink)/len(qdiscs)]
		spec := qdiscs[i%len(qdiscs)]
		return linkcharCell(cfg, payload, upTrace, l, imp, spec, seed)
	}
	results := NewRunner(cfg.Parallel).Run(m)

	out := LinkcharResult{}
	for i, vals := range results {
		out.Rows = append(out.Rows, LinkcharRow{
			Link:            corpus[i/perLink].Name(),
			Impair:          impairs[(i%perLink)/len(qdiscs)].name,
			Qdisc:           qdiscs[i%len(qdiscs)],
			DoneMs:          vals[0],
			GoodputKbps:     vals[1],
			DupBytes:        uint64(vals[2]),
			ChecksumDrops:   uint64(vals[3]),
			Retransmits:     uint64(vals[4]),
			FastRetransmits: uint64(vals[5]),
			Timeouts:        uint64(vals[6]),
			Impaired:        uint64(vals[7]),
			TailDrops:       uint64(vals[8]),
		})
	}
	return out
}

// linkcharCell runs one cell: a bulk download from a server namespace to a
// client across a downlink shaped by trace + qdisc + impairment box.
func linkcharCell(cfg LinkcharConfig, payload []byte, up, down *trace.Trace,
	imp linkcharImpair, spec netem.QdiscSpec, seed uint64) []float64 {
	loop := sim.NewLoop()
	network := nsim.NewNetwork(loop)
	cns := network.NewNamespace("client")
	sns := network.NewNamespace("server")
	clientAddr := nsim.ParseAddr("10.0.0.1")
	serverAP := nsim.AddrPort{Addr: nsim.ParseAddr("10.0.0.2"), Port: 5001}
	cns.AddAddress(clientAddr)
	sns.AddAddress(serverAP.Addr)

	script := netem.NewScenarioScript(loop)
	rng := sim.NewRand(seed)
	box, impaired := imp.build(loop, script, rng.Fork())

	downQ := spec.Build()
	upPipe := netem.NewPipeline(
		netem.NewDelayBox(loop, cfg.OneWayDelay),
		netem.NewTraceBox(loop, up.Cursor(), netem.QdiscSpec{}.Build()),
	)
	boxes := []netem.Box{netem.NewTraceBox(loop, down.Cursor(), downQ)}
	if box != nil {
		boxes = append(boxes, box)
	}
	boxes = append(boxes, netem.NewDelayBox(loop, cfg.OneWayDelay))
	downPipe := netem.NewPipeline(boxes...)
	ec, es := nsim.Connect(cns, sns, upPipe, downPipe)
	cns.AddDefaultRoute(ec)
	sns.AddDefaultRoute(es)

	cs, ss := tcpsim.NewStack(cns), tcpsim.NewStack(sns)
	var srv *tcpsim.Conn
	if err := ss.Listen(serverAP, func(c *tcpsim.Conn) {
		srv = c
		c.OnData(func([]byte) {})
		c.WriteStable(payload)
		c.Close()
	}); err != nil {
		panic("experiments: " + err.Error())
	}
	conn, err := cs.Dial(clientAddr, serverAP)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	var done sim.Time
	conn.OnData(func([]byte) {})
	conn.OnClose(func(error) { done = loop.Now() })
	conn.Close()
	loop.Run()
	script.Finish(loop.Now())

	cstats := conn.Statistics()
	var sstats tcpsim.Stats
	if srv != nil {
		sstats = srv.Statistics()
	}
	doneMs := float64(done) / float64(sim.Millisecond)
	goodput := 0.0
	if done > 0 {
		goodput = float64(cstats.BytesReceived) * 8 / done.Seconds() / 1000
	}
	return []float64{
		doneMs,
		goodput,
		float64(cstats.DupBytesRcvd),
		float64(cstats.ChecksumDrops),
		float64(sstats.Retransmits),
		float64(sstats.FastRetransmits),
		float64(sstats.Timeouts),
		float64(impaired()),
		float64(downQ.QueueStats().TailDrops),
	}
}

// String renders the grid as a fixed-width table, one row per cell.
func (r LinkcharResult) String() string {
	var b strings.Builder
	b.WriteString("link character × impairment × qdisc: bulk download goodput\n")
	fmt.Fprintf(&b, "  %-5s %-16s %-16s %9s %9s %8s %6s %5s %4s %8s %7s %6s\n",
		"link", "impair", "qdisc", "done_ms", "goodput", "rexmit", "fast", "rto", "csum", "dup_B", "impair", "tdrop")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-5s %-16s %-16s %9.1f %9.1f %8d %6d %5d %4d %8d %7d %6d\n",
			row.Link, row.Impair, row.Qdisc.String(),
			row.DoneMs, row.GoodputKbps,
			row.Retransmits, row.FastRetransmits, row.Timeouts,
			row.ChecksumDrops, row.DupBytes, row.Impaired, row.TailDrops)
	}
	return b.String()
}
