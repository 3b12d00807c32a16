package main

import (
	"fmt"
	"time"

	"repro/internal/archive"
	"repro/internal/browser"
	"repro/internal/experiments"
	"repro/internal/netem"
	"repro/internal/nsim"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/trace"
	"repro/internal/webgen"
)

// impairedPages is how many pages each impairment arm loads. With six arms
// and one bulk download each, a pass is 102 ops, enough for op_ms_tail to
// be p90.
const impairedPages = 16

// bulkBytes is the size of each arm's bulk download.
const bulkBytes = 1 << 20

var (
	bulkClient = nsim.ParseAddr("10.0.0.1")
	bulkServer = nsim.AddrPort{Addr: nsim.ParseAddr("10.0.0.2"), Port: 5001}
)

// impaired is the loss-recovery workload: page loads and bulk downloads
// over an LTE path with one impairment arm at a time.
type impaired struct {
	pages []*webgen.Page
	sites []*archive.Site
	arms  []impairArm
	sc    *experiments.Scratch
	opts  browser.Options
	// The bulk downloads reuse one loop and one set of pools, as an engine
	// shard does across its cells.
	loop    *sim.Loop
	pools   *nsim.PoolSet
	segs    *tcpsim.SegmentPool
	conns   *tcpsim.ConnPool
	payload []byte
	// traced holds each arm's shell stack wrapped for the traced run.
	traced                                []tracedStack
	loadSpan, bulkSpan, dialSpan, runSpan int32
}

// impairArm is one impairment arm: the shell stack every op of the arm
// runs over, innermost first, ending with the arm's own shell.
type impairArm struct {
	name   string
	shells []shells.Shell
	// script is the scripted arm's shell; nil for the other arms.
	script *scriptShell
}

func buildImpaired(seed uint64, tr *tracer) (workload, error) {
	w := &impaired{
		sc:      experiments.NewScratch(),
		opts:    browser.DefaultOptions(),
		loop:    sim.NewLoop(),
		pools:   &nsim.PoolSet{},
		segs:    &tcpsim.SegmentPool{},
		conns:   tcpsim.NewConnPool(),
		payload: make([]byte, bulkBytes),
	}
	// A connection silent this long is given up, so an outage can only
	// degrade a load, never wedge it.
	w.opts.ResponseTimeout = 60 * sim.Second
	tr.timed("webgen.GenerateCorpus", func() { w.pages = corpusSample(seed, impairedPages) })
	tr.timed("webgen.Materialize", func() {
		for _, p := range w.pages {
			w.sites = append(w.sites, webgen.Materialize(p))
		}
	})
	var up, down *trace.Trace
	var err error
	tr.timed("trace.synth", func() {
		// experiments.Linkchar's LTE link: the link-character corpus's
		// first trace, LTE, down and a 12 Mbit/s uplink.
		var corpus []*trace.Trace
		if corpus, err = trace.Corpus(sim.DeriveSeed(seed, "corpus"), 30_000); err != nil {
			return
		}
		down = corpus[0]
		up, err = trace.Constant(12_000_000, 2000)
	})
	if err != nil {
		return nil, err
	}
	armSeed := func(name string) uint64 { return sim.DeriveSeed(seed, "arm", name) }
	script := &scriptShell{}
	for _, a := range []struct {
		name  string
		shell shells.Shell
	}{
		// Burst-prone chain: about 2% of packets start a loss burst, with
		// occasional isolated losses in between.
		{"4state", &shells.ImpairShell{FourState: []float64{0.02, 0.4, 0.2, 0.1, 0.005}, Seed: armSeed("4state")}},
		{"bernoulli", &shells.LossShell{UpProb: 0.01, DownProb: 0.01, Seed: armSeed("bernoulli")}},
		// 30 ms displacement: whole flights overtake the displaced packet.
		{"reorder", &shells.ImpairShell{ReorderProb: 0.03, ReorderGap: 1, ReorderHold: 30 * sim.Millisecond, Seed: armSeed("reorder")}},
		{"duplicate", &shells.ImpairShell{DuplicateProb: 0.05, Seed: armSeed("duplicate")}},
		{"corrupt", &shells.ImpairShell{CorruptProb: 0.02, Seed: armSeed("corrupt")}},
		{"scripted", script},
	} {
		arm := impairArm{name: a.name, shells: []shells.Shell{
			shells.NewDelayShell(20 * sim.Millisecond), shells.NewLinkShell(up, down), a.shell,
		}}
		if a.shell == shells.Shell(script) {
			arm.script = script
		}
		w.arms = append(w.arms, arm)
	}
	return w, nil
}

// scriptShell is the scripted arm: a 20 Mbit/s droptail bottleneck behind
// scripted gates. Each Boxes call arms a fresh netem.ScenarioScript that
// steps the rate down, hot-swaps droptail for CoDel and then cuts the link
// for 200 ms.
type scriptShell struct {
	// script is the most recent Boxes call's script.
	script *netem.ScenarioScript
}

func (s *scriptShell) Name() string { return "scripted" }

func (s *scriptShell) Boxes(loop *sim.Loop) (netem.Box, netem.Box) {
	script := netem.NewScenarioScript(loop)
	upGate := netem.NewScriptedGateBox(loop, nil)
	downGate := netem.NewScriptedGateBox(loop, nil)
	q := netem.QdiscSpec{Packets: 200}.Build()
	rate := netem.NewRateBox(loop, 20_000_000, q)
	script.Watch(q)
	script.RateStep(300*sim.Millisecond, rate, 8_000_000)
	script.SwapQdisc(600*sim.Millisecond, rate, netem.QdiscSpec{Kind: netem.QdiscCoDel, Packets: 200}, netem.DrainHold)
	script.LinkDown(1000*sim.Millisecond, upGate)
	script.LinkDown(1000*sim.Millisecond, downGate)
	script.LinkUp(1200*sim.Millisecond, upGate, netem.DrainFlush)
	script.LinkUp(1200*sim.Millisecond, downGate, netem.DrainFlush)
	s.script = script
	return upGate, netem.NewPipeline(rate, downGate)
}

func (w *impaired) passLen() int   { return len(w.arms) * (len(w.pages) + 1) }
func (w *impaired) minPasses() int { return 1 }

func (w *impaired) runPass(ph *phase) {
	if ph.tr != nil && w.traced == nil {
		tr := ph.tr
		w.loadSpan = tr.name("experiments.Load")
		w.bulkSpan = tr.name("bench.bulk")
		w.dialSpan = tr.name("tcpsim.Dial")
		w.runSpan = tr.name("sim.Loop.Run")
		for _, a := range w.arms {
			w.traced = append(w.traced, wrapStack(a.shells, tr))
		}
	}
	perArm := len(w.pages) + 1
	for i := 0; i < w.passLen(); i++ {
		ai, j := i/perArm, i%perArm
		if j < len(w.pages) {
			w.load(ph, i, ai, j)
		} else {
			w.bulk(ph, i, ai)
		}
	}
}

// stack returns the shells an op of arm ai runs over, wrapped when the
// phase is traced.
func (w *impaired) stack(ph *phase, ai int) []shells.Shell {
	if ph.tr != nil {
		return w.traced[ai].shells
	}
	return w.arms[ai].shells
}

// opDone folds the traced counters of the op that just ended on arm ai.
func (w *impaired) opDone(ph *phase, ai int) uint64 {
	var transitions []netem.Transition
	if s := w.arms[ai].script; s != nil {
		transitions = s.script.Transitions()
	}
	ph.layers.transitions += uint64(len(transitions))
	if ph.tr != nil {
		ts := w.traced[ai].wrapped
		ph.layers.addBoxes(ts, ts[len(ts)-1])
	}
	d := newDigest()
	digestTransitions(&d, transitions)
	return d.sum()
}

func (w *impaired) load(ph *phase, op, ai, pi int) {
	var l *lane
	if ph.tr != nil {
		l = ph.tr.lanes[0]
		l.op = int32(op)
		l.begin(w.loadSpan)
	}
	t0 := time.Now()
	r := experiments.Load(experiments.LoadSpec{
		Page: w.pages[pi], Site: w.sites[pi], Shells: w.stack(ph, ai), Browser: &w.opts,
		DNSLatency: sim.Millisecond, RequestCPU: experiments.DefaultRequestCPU, Scratch: w.sc,
	})
	wall := time.Since(t0)
	if l != nil {
		_, self := l.end()
		ph.layers.loadSelf = append(ph.layers.loadSelf, float64(self)/1e6)
	}
	d := newDigest()
	digestLoad(&d, r)
	d.u64(w.opDone(ph, ai))
	ph.done(op, wall, d.sum(), inArm(w.arms[ai].name, checkImpairedLoad(r, w.pages[pi])))
	ph.layers.addLoad(r)
}

// checkImpairedLoad is the output check of a load over an impaired path:
// every resource accounted for, none answered with an error status, and the
// page's bytes delivered in full unless a loss burst outlasted a
// connection, whose resources then count in Failed.
func checkImpairedLoad(r browser.Result, page *webgen.Page) error {
	if r.Errors != 0 || r.Resources != len(page.Resources) || r.Bytes > page.TotalBytes() ||
		(r.Failed == 0 && r.Bytes != page.TotalBytes()) {
		return fmt.Errorf("load of %s: %d/%d resources, %d errors, %d failed, %d/%d bytes",
			page.Name, r.Resources, len(page.Resources), r.Errors, r.Failed, r.Bytes, page.TotalBytes())
	}
	return nil
}

// bulk runs one 1 MiB download from a server namespace to the client over
// the arm's shells, on connections the benchmark owns.
func (w *impaired) bulk(ph *phase, op, ai int) {
	var l *lane
	if ph.tr != nil {
		l = ph.tr.lanes[0]
		l.op = int32(op)
		l.begin(w.bulkSpan)
	}
	t0 := time.Now()
	loop := w.loop
	loop.Reset()
	network := nsim.NewNetworkPooled(loop, w.pools)
	server := network.NewNamespace("server")
	server.AddAddress(bulkServer.Addr)
	st := shells.Build(network, server, bulkClient, w.stack(ph, ai)...)
	cs, ss := tcpsim.NewStackPool(st.App, w.segs), tcpsim.NewStackPool(server, w.segs)
	cs.SetConnPool(w.conns)
	ss.SetConnPool(w.conns)
	// Ride out long loss bursts and the outage instead of giving up, so
	// every download delivers all its bytes.
	cs.SetMaxRTORetries(30)
	ss.SetMaxRTORetries(30)

	var srvStats, cliStats tcpsim.Stats
	var cliErr, setupErr error
	closed := false
	if err := ss.Listen(bulkServer, func(c *tcpsim.Conn) {
		c.OnData(func([]byte) {})
		if err := c.WriteStable(w.payload); err != nil {
			setupErr = err
		}
		c.Close()
		c.OnCloseConn(func(c *tcpsim.Conn, _ error) {
			srvStats = c.Statistics()
			ss.Recycle(c)
		})
	}); err != nil {
		setupErr = err
	}
	if l != nil {
		l.begin(w.dialSpan)
	}
	conn, err := cs.Dial(bulkClient, bulkServer)
	if l != nil {
		l.end()
	}
	if err != nil {
		setupErr = err
	} else {
		conn.OnData(func([]byte) {})
		conn.OnCloseConn(func(c *tcpsim.Conn, err error) {
			closed, cliErr, cliStats = true, err, c.Statistics()
			cs.Recycle(c)
		})
		conn.Close()
	}
	if l != nil {
		l.begin(w.runSpan)
	}
	done := loop.Run()
	if l != nil {
		l.end()
	}
	wall := time.Since(t0)
	if l != nil {
		l.end()
	}

	pkts := w.pools.OutstandingPackets() + w.pools.OutstandingDatagrams()
	conns := w.conns.Outstanding() + w.segs.Outstanding()
	var checkErr error
	switch {
	case setupErr != nil:
		checkErr = setupErr
	case !closed || cliErr != nil || cliStats.BytesReceived != bulkBytes:
		checkErr = fmt.Errorf("bulk download: closed=%v err=%v, %d of %d bytes", closed, cliErr, cliStats.BytesReceived, bulkBytes)
	case pkts != 0 || conns != 0:
		checkErr = fmt.Errorf("bulk download: at quiescence %d packets/datagrams and %d conns/segments outstanding", pkts, conns)
	}
	ly := &ph.layers
	ly.poolOutstanding += pkts
	ly.connOutstanding += conns
	ly.bulks++
	ly.retx += cliStats.Retransmits + srvStats.Retransmits
	ly.fastRetx += cliStats.FastRetransmits + srvStats.FastRetransmits
	ly.timeouts += cliStats.Timeouts + srvStats.Timeouts
	ly.csumDrops += cliStats.ChecksumDrops + srvStats.ChecksumDrops
	ly.dupBytes += cliStats.DupBytesRcvd + srvStats.DupBytesRcvd
	ly.rcvdBytes += cliStats.BytesReceived + srvStats.BytesReceived

	d := newDigest()
	d.i64(int64(done))
	digestConnStats(&d, cliStats)
	digestConnStats(&d, srvStats)
	d.u64(w.opDone(ph, ai))
	ph.done(op, wall, d.sum(), inArm(w.arms[ai].name, checkErr))
}
