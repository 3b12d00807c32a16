package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// contentionShards is the engine's shard count: the host's core count when
// the benchmark was defined, fixed so results compare across hosts.
const contentionShards = 2

// contention is the many-flow engine workload: a pass is one engine.Run of
// a grid of contention cells, an op is one cell.
type contention struct {
	e      *engine.Engine
	labels []string
	specs  []engine.ContentionSpec
	// walls and results are the current pass's per-cell outputs; each cell
	// writes only its own slot.
	walls   []time.Duration
	results []engine.ContentionResult
	// Span names for the traced run, interned on its first pass.
	named             bool
	runSpan, cellSpan int32
}

func buildContention(seed uint64, tr *tracer) (workload, error) {
	var fast, up12, cellular *trace.Trace
	var err error
	tr.timed("trace.synth", func() {
		// BenchmarkContention's link, both ways.
		if fast, err = trace.Constant(400_000_000, 1000); err != nil {
			return
		}
		// experiments.Contention's cellular link: a 12 Mbit/s uplink and a
		// 6-20 Mbit/s downlink in 100 ms steps.
		if up12, err = trace.Constant(12_000_000, 2000); err != nil {
			return
		}
		cellular, err = trace.Cellular(sim.NewRand(sim.DeriveSeed(seed, "cellular")),
			6_000_000, 20_000_000, 100, 4000)
	})
	if err != nil {
		return nil, err
	}
	links := []struct {
		name     string
		up, down *trace.Trace
	}{{"constant", fast, fast}, {"cellular", up12, cellular}}
	droptail := netem.QdiscSpec{Packets: 600}
	fqCoDel := netem.QdiscSpec{Kind: netem.QdiscFQCoDel, Packets: 600, Flows: 256}
	w := &contention{e: engine.New(contentionShards)}
	add := func(flows int, link string, up, down *trace.Trace, q netem.QdiscSpec) {
		label := fmt.Sprintf("%s+%s/%d", link, q, flows)
		w.labels = append(w.labels, label)
		// BenchmarkContention's trimmed transfers: even the 10k cells are
		// dominated by concurrent steady-state forwarding.
		w.specs = append(w.specs, engine.ContentionSpec{
			Seed:          sim.DeriveSeed(seed, "contention", label),
			Flows:         flows,
			Mix:           engine.Mix{Web: 8, Bulk: 1, RPC: 1},
			Qdisc:         q,
			Up:            up,
			Down:          down,
			ArrivalWindow: 500 * sim.Millisecond,
			WebTransfers:  1,
			WebThink:      10 * sim.Millisecond,
			WebMaxBytes:   32 << 10,
			BulkBytes:     64 << 10,
			RPCCalls:      2,
			RPCGap:        10 * sim.Millisecond,
		})
	}
	for _, l := range links {
		for _, q := range []netem.QdiscSpec{droptail, {Kind: netem.QdiscCoDel, Packets: 600}, fqCoDel, {Kind: netem.QdiscPIE, Packets: 600}} {
			add(1000, l.name, l.up, l.down, q)
		}
	}
	// The 10k cells are BenchmarkContention's flows10000 row and its
	// droptail twin. They run on the fast link only: the cellular link
	// cannot carry 10k flows, which then give up with errors.
	for _, q := range []netem.QdiscSpec{droptail, fqCoDel} {
		add(10000, "constant", fast, fast, q)
	}
	w.walls = make([]time.Duration, len(w.labels))
	w.results = make([]engine.ContentionResult, len(w.labels))
	return w, nil
}

func (w *contention) passLen() int { return len(w.labels) }

// minPasses makes the fixed op count 100, so op_ms_tail is p90: with a
// fifth of the cells at 10k flows that percentile sits inside the 10k-cell
// mode, not at its edge.
func (w *contention) minPasses() int { return 10 }

func (w *contention) runPass(ph *phase) {
	tr := ph.tr
	var runID spanID
	if tr != nil {
		if !w.named {
			w.named = true
			w.runSpan = tr.name("engine.Engine.Run")
			w.cellSpan = tr.name("engine.RunContention")
		}
		runID = tr.lanes[0].begin(w.runSpan)
	}
	w.e.Run(engine.Job{Cells: w.labels, Run: func(sh *engine.Shard, cell int, label string) any {
		var l *lane
		if tr != nil {
			l = tr.lanes[1+sh.Index()]
			l.op = int32(cell)
			l.beginUnder(w.cellSpan, runID)
		}
		t0 := time.Now()
		w.results[cell] = engine.RunContention(sh, w.specs[cell])
		w.walls[cell] = time.Since(t0)
		if l != nil {
			l.end()
		}
		return nil
	}})
	if tr != nil {
		tr.lanes[0].end()
	}

	// Pools must balance once the engine is quiescent; the pass's last op
	// owns that check.
	var leak error
	var pkts, conns int64
	for i := 0; i < w.e.NumShards(); i++ {
		sh := w.e.Shard(i)
		pkts += sh.Pools().OutstandingPackets() + sh.Pools().OutstandingDatagrams()
		conns += sh.Conns().Outstanding() + sh.Segments().Outstanding()
	}
	if pkts != 0 || conns != 0 {
		leak = fmt.Errorf("at quiescence %d packets/datagrams and %d conns/segments outstanding", pkts, conns)
	}
	ly := &ph.layers
	ly.poolOutstanding += pkts
	ly.connOutstanding += conns
	p := w.e.Placement()
	ly.jobs++
	ly.idleShare += 1 - p.Utilization()
	ly.steals += p.Steals()
	ly.eventSkew += p.EventSkew()
	ly.plannedSkew += p.PlannedEventSkew()

	for i, r := range w.results {
		var err error
		if r.FlowsDone != r.Flows || r.Errors != 0 {
			err = fmt.Errorf("cell %s: %d/%d flows done, %d errors", w.labels[i], r.FlowsDone, r.Flows, r.Errors)
		} else if i == len(w.results)-1 {
			err = leak
		}
		d := newDigest()
		digestContention(&d, r)
		ph.done(i, w.walls[i], d.sum(), err)

		class := 0
		if r.Flows > 1000 {
			class = 1
		}
		ly.cells++
		ly.events += r.Events
		ly.classEvents[class] += r.Events
		ly.classWallNs[class] += uint64(w.walls[i].Nanoseconds())
		ly.qDrops += r.TailDrops + r.AQMDrops
		ly.aqmMarks += r.AQMMarks
		ly.qMaxQueue = max(ly.qMaxQueue, r.MaxQueue)
		ly.peakConns = max(ly.peakConns, r.PeakConns)
	}
}
