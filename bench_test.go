// Benchmarks that regenerate every table and figure in the paper, plus
// ablation benches for the design choices called out in DESIGN.md. Each
// paper benchmark runs a subsampled configuration per iteration (the full
// corpus runs live in cmd/mm-bench); the measured statistics are reported
// via b.ReportMetric so `go test -bench` output doubles as a results
// table.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/browser"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/httpx"
	"repro/internal/match"
	"repro/internal/netem"
	"repro/internal/nsim"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/trace"
	"repro/internal/webgen"
)

// BenchmarkFigure2 regenerates Figure 2 (shell overhead CDFs): median PLT
// overhead of DelayShell 0 ms and LinkShell 1000 Mbit/s over bare
// ReplayShell. Paper: +0.15% and +1.5%.
func BenchmarkFigure2(b *testing.B) {
	cfg := experiments.DefaultFig2()
	cfg.Sites = 40
	var last experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig2(cfg)
	}
	b.ReportMetric(last.OverheadD*100, "delay0-overhead-%")
	b.ReportMetric(last.OverheadL*100, "link1000-overhead-%")
	b.ReportMetric(last.Replay.Median(), "replay-median-ms")
}

// BenchmarkTable1 regenerates Table 1 (reproducibility): per-site PLT
// mean across two machines. Paper: CNBC 7584±120 / 7612±111 ms, wikiHow
// 4804±37 / 4800±37 ms.
func BenchmarkTable1(b *testing.B) {
	cfg := experiments.DefaultTable1()
	cfg.Loads = 10
	var last experiments.Table1Result
	for i := 0; i < b.N; i++ {
		last = experiments.Table1(cfg)
	}
	b.ReportMetric(last.Rows[0].Machines[0].Mean(), "cnbc-mean-ms")
	b.ReportMetric(last.Rows[1].Machines[0].Mean(), "wikihow-mean-ms")
	b.ReportMetric(last.Rows[0].MeanGap()*100, "cnbc-machine-gap-%")
}

// BenchmarkTable2 regenerates Table 2 (multi-origin ablation grid):
// per-site PLT distortion of single-server replay. Paper medians range
// from 1.6% (1 Mbit/s) to 21.4% (25 Mbit/s).
func BenchmarkTable2(b *testing.B) {
	cfg := experiments.DefaultTable2()
	cfg.Sites = 15
	var last experiments.Table2Result
	for i := 0; i < b.N; i++ {
		last = experiments.Table2(cfg)
	}
	lo := last.Cell(30*sim.Millisecond, 1_000_000)
	hi := last.Cell(30*sim.Millisecond, 25_000_000)
	b.ReportMetric(lo.Diffs.Median()*100, "1mbps-median-diff-%")
	b.ReportMetric(hi.Diffs.Median()*100, "25mbps-median-diff-%")
	b.ReportMetric(hi.Diffs.Percentile(95)*100, "25mbps-p95-diff-%")
}

// BenchmarkFigure3 regenerates Figure 3 (replay fidelity): median PLT gap
// of multi-origin and single-server replay versus the live web. Paper:
// 7.9% and 29.6%.
func BenchmarkFigure3(b *testing.B) {
	cfg := experiments.DefaultFig3()
	cfg.Loads = 20
	var last experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig3(cfg)
	}
	b.ReportMetric(last.MultiGap*100, "multi-gap-%")
	b.ReportMetric(last.SingleGap*100, "single-gap-%")
	b.ReportMetric(last.Web.Median(), "web-median-ms")
}

// BenchmarkServersPerSite regenerates the §4 corpus statistic. Paper:
// median 20, p95 51, 9 single-server sites of 500.
func BenchmarkServersPerSite(b *testing.B) {
	var last experiments.ServersResult
	for i := 0; i < b.N; i++ {
		last = experiments.ServersPerSite(1, 500)
	}
	b.ReportMetric(last.Counts.Median(), "median-servers")
	b.ReportMetric(last.Counts.Percentile(95), "p95-servers")
	b.ReportMetric(float64(last.SingleServer), "single-server-sites")
}

// BenchmarkIsolation regenerates the §4 isolation claim: a load measured
// alongside a saturating neighbour must match the solo load exactly.
func BenchmarkIsolation(b *testing.B) {
	identical := true
	for i := 0; i < b.N; i++ {
		r := experiments.Isolation(5, 1)
		identical = identical && r.Identical()
	}
	v := 1.0
	if !identical {
		v = 0
	}
	b.ReportMetric(v, "bit-identical")
}

// --- Parallel engine benches ---

// benchFig2Parallel regenerates a subsampled Figure 2 at a fixed engine
// shard count. Comparing the Sequential/Parallel4/Parallel8 variants
// measures the engine's wall-clock scaling on page-load cells; on a
// multi-core host Parallel4 should run Figure 2 at least 2x faster than
// Sequential (on a single-core host the variants tie, since every cell is
// CPU-bound simulation).
func benchFig2Parallel(b *testing.B, shards int) {
	cfg := experiments.DefaultFig2()
	cfg.Sites = 40
	cfg.Shards = shards
	var last experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig2(cfg)
	}
	b.ReportMetric(float64(shards), "parallel")
	b.ReportMetric(last.OverheadD*100, "delay0-overhead-%")
}

func BenchmarkFigure2Sequential(b *testing.B) { benchFig2Parallel(b, 1) }
func BenchmarkFigure2Parallel4(b *testing.B)  { benchFig2Parallel(b, 4) }
func BenchmarkFigure2Parallel8(b *testing.B)  { benchFig2Parallel(b, 8) }

// BenchmarkSweep measures the scenario-sweep driver (the open-ended
// site x stack x seed grid) at GOMAXPROCS shards.
func BenchmarkSweep(b *testing.B) {
	cfg := experiments.DefaultSweep()
	cfg.Shards = 0 // GOMAXPROCS
	var last experiments.SweepResult
	for i := 0; i < b.N; i++ {
		last = experiments.Sweep(cfg)
	}
	b.ReportMetric(float64(last.Cells), "cells")
	b.ReportMetric(last.Rows[0].PLT.Median(), "row0-median-ms")
}

// --- Ablation benches (DESIGN.md) ---

// BenchmarkDelayBox measures DelayShell's queue: 1000 packets, one per
// microsecond, through a 10 ms DelayBox on a fresh loop.
func BenchmarkDelayBox(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loop := sim.NewLoop()
		box := netem.NewDelayBox(loop, 10*sim.Millisecond)
		delivered := 0
		box.SetSink(func(*netem.Packet) { delivered++ })
		for j := 0; j < 1000; j++ {
			j := j
			loop.Schedule(sim.Time(j)*sim.Microsecond, func(sim.Time) {
				box.Send(&netem.Packet{Size: netem.MTU})
			})
		}
		loop.Run()
		if delivered != 1000 {
			b.Fatalf("delivered %d", delivered)
		}
	}
}

// BenchmarkAblationMatcherExactOnly vs full: cost and hit rate of the
// Mahimahi query-prefix matching rule versus exact-only matching, on a
// workload whose queries carry cache-buster tokens.
func BenchmarkAblationMatcherPrefix(b *testing.B) {
	page := webgen.GeneratePage(sim.NewRand(1), webgen.CNBCLike())
	site := webgen.Materialize(page)
	m := match.New(site)
	b.ReportAllocs()
	b.ResetTimer()
	// Requests carry perturbed cache-buster suffixes: exact match fails,
	// the Mahimahi prefix rule recovers.
	hits := 0
	for i := 0; i < b.N; i++ {
		e := site.Exchanges[i%len(site.Exchanges)]
		req := e.Request.Clone()
		req.Target += "?cb=12345"
		if _, ok := m.Lookup(req); ok {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N)*100, "hit-%")
}

// BenchmarkAblationConnsPerHost sweeps the browser's per-origin connection
// limit, the knob the multi-origin effect depends on.
func BenchmarkAblationConnsPerHost(b *testing.B) {
	page := webgen.GeneratePage(sim.NewRand(5), webgen.WikiHowLike())
	tr, err := trace.Constant(14_000_000, 2000)
	if err != nil {
		b.Fatal(err)
	}
	for _, conns := range []int{2, 6, 12} {
		b.Run(map[int]string{2: "conns2", 6: "conns6", 12: "conns12"}[conns], func(b *testing.B) {
			var plt float64
			scratch := experiments.NewScratch()
			for i := 0; i < b.N; i++ {
				opts := browser.DefaultOptions()
				opts.ConnsPerHost = conns
				plt = experiments.PLTms(experiments.LoadSpec{
					Page: page, DNSLatency: sim.Millisecond,
					Shells: []shells.Shell{
						shells.NewDelayShell(30 * sim.Millisecond),
						shells.NewLinkShell(tr, tr),
					},
					Browser: &opts,
					Scratch: scratch,
				})
			}
			b.ReportMetric(plt, "plt-ms")
		})
	}
}

// BenchmarkAblationTraceBoxQueue compares LinkShell with an unlimited
// queue against a droptail-limited one under a saturating load.
func BenchmarkAblationTraceBoxQueue(b *testing.B) {
	page := webgen.GeneratePage(sim.NewRand(6), webgen.WikiHowLike())
	for _, qlen := range []int{0, 32} {
		name := "unlimited"
		if qlen > 0 {
			name = "droptail32"
		}
		b.Run(name, func(b *testing.B) {
			tr, err := trace.Constant(2_000_000, 2000)
			if err != nil {
				b.Fatal(err)
			}
			var plt float64
			scratch := experiments.NewScratch()
			for i := 0; i < b.N; i++ {
				link := shells.NewLinkShell(tr, tr)
				link.UpQueue = netem.QdiscSpec{Packets: qlen}
				link.DownQueue = link.UpQueue
				plt = experiments.PLTms(experiments.LoadSpec{
					Page: page, DNSLatency: sim.Millisecond,
					Shells: []shells.Shell{
						shells.NewDelayShell(50 * sim.Millisecond),
						link,
					},
					Scratch: scratch,
				})
			}
			b.ReportMetric(plt, "plt-ms")
		})
	}
}

// BenchmarkQdisc measures the queue-discipline hot path: one op is 64
// enqueues followed by draining dequeues on a warmed queue, the virtual
// clock advancing 5 ms per dequeue. Under that schedule the tail of every
// drain shows CoDel sojourns above target for more than an interval, so
// the control law's full path — dropping state, square-root spacing,
// recycle-on-drop — runs every op (asserted below), not just its
// below-target fast path; the codel-mark and pie rows run the ECN marking
// path and PIE's probability controller the same way. Every discipline
// must stay at 0 allocs/op — the qdisc boundary sits under every emulated
// packet. ns/packet (via ReportMetric) is the comparable per-packet cost.
func BenchmarkQdisc(b *testing.B) {
	const burst = 64
	cases := []struct {
		name string
		ect  bool
		mk   func() netem.Qdisc
	}{
		{"droptail", false, func() netem.Qdisc { return netem.NewDropTail(256, 0) }},
		{"codel", false, func() netem.Qdisc { return netem.NewCoDel(netem.CoDelConfig{MaxPackets: 256}) }},
		{"codel-mark", true, func() netem.Qdisc {
			return netem.NewCoDel(netem.CoDelConfig{MaxPackets: 256, ECN: true})
		}},
		{"pie", false, func() netem.Qdisc { return netem.NewPIE(netem.PIEConfig{MaxPackets: 256}) }},
		{"pie-mark", true, func() netem.Qdisc {
			return netem.NewPIE(netem.PIEConfig{MaxPackets: 256, ECN: true})
		}},
		// The fq rows spread the burst over 8 flows (Flow = i mod 8 below),
		// so every op runs the full RFC 8290 path: hashing, DRR rotation
		// through all buckets, and each bucket's own CoDel law.
		{"fqcodel", false, func() netem.Qdisc {
			return netem.NewFQCoDel(netem.FQCoDelConfig{MaxPackets: 256, Flows: 8})
		}},
		{"fqcodel-mark", true, func() netem.Qdisc {
			return netem.NewFQCoDel(netem.FQCoDelConfig{MaxPackets: 256, Flows: 8, ECN: true})
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			q := tc.mk()
			pkts := make([]*netem.Packet, burst)
			for i := range pkts {
				pkts[i] = &netem.Packet{Size: netem.MTU, ECT: tc.ect, Flow: uint64(i % 8)}
			}
			now := sim.Time(0)
			step := func() {
				for _, p := range pkts {
					p.CE = false
					q.Enqueue(p, now)
				}
				// Drain with the clock advancing: late packets in each
				// burst wait 100ms+ (past CoDel's interval and many PIE
				// update periods), so the control law engages within
				// every op.
				for {
					now += 5 * sim.Millisecond
					if q.Dequeue(now) == nil {
						break
					}
				}
			}
			step() // warm the ring to steady-state capacity
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(burst*b.N), "ns/packet")
			qs := q.QueueStats()
			if tc.ect && qs.AQMMarks == 0 {
				b.Fatalf("%s bench never exercised the marking law", tc.name)
			}
			if !tc.ect && tc.name != "droptail" && qs.AQMDrops == 0 {
				b.Fatalf("%s bench never exercised the drop law", tc.name)
			}
		})
	}
}

// BenchmarkImpair measures the impairment-box hot path under the same
// contract as BenchmarkQdisc: one op pushes a 64-packet burst through the
// box (plus, for the reorder row, the loop turn that drains its holds) and
// must stay at 0 allocs/op — every box sits on the per-packet path of an
// emulated link. Packets come from a PacketPool and are recycled by the
// sink so DuplicateBox clones reuse pooled storage; the markov4 row prices
// the 4-state chain's two-draw discipline inside a LossBox.
func BenchmarkImpair(b *testing.B) {
	const burst = 64
	cases := []struct {
		name string
		mk   func(loop *sim.Loop) netem.Box
	}{
		{"reorder", func(loop *sim.Loop) netem.Box {
			return netem.NewReorderBox(loop, 0.1, 0.25, 1, sim.Millisecond, sim.NewRand(7))
		}},
		{"duplicate", func(loop *sim.Loop) netem.Box {
			return netem.NewDuplicateBox(0.1, 0.25, sim.NewRand(7))
		}},
		{"corrupt", func(loop *sim.Loop) netem.Box {
			return netem.NewCorruptBox(0.1, 0.25, sim.NewRand(7))
		}},
		{"markov4", func(loop *sim.Loop) netem.Box {
			return netem.NewLossBoxModel(netem.NewMarkov4State(0.05, 0.4, 0.3, 0.2, 0.02), sim.NewRand(7))
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			loop := sim.NewLoop()
			box := tc.mk(loop)
			pool := &netem.PacketPool{}
			box.SetSink(func(pkt *netem.Packet) { pool.Put(pkt) })
			step := func() {
				for i := 0; i < burst; i++ {
					pkt := pool.Get()
					pkt.Size = netem.MTU
					pkt.Flow = uint64(i % 8)
					box.Send(pkt)
				}
				loop.Run() // drains reorder holds; no-op for stateless boxes
			}
			step() // warm the pool to steady-state population
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(burst*b.N), "ns/packet")
			s := box.Stats()
			if s.Arrived == 0 || s.Delivered == 0 {
				b.Fatalf("%s bench moved no packets: %+v", tc.name, s)
			}
			if pool.Outstanding() != 0 {
				b.Fatalf("%s bench leaked %d pooled packets", tc.name, pool.Outstanding())
			}
		})
	}
}

// BenchmarkPageLoad measures raw simulator throughput: one full replayed
// page load per iteration (the unit of work every experiment multiplies),
// on one warmed Scratch. events/op is the loop events one load fires, read
// from the scheduler-stats sink as perfbench's sim.events_per_op is; the
// virtual clock makes it exact, so any change to it is a change in work.
func BenchmarkPageLoad(b *testing.B) {
	page := webgen.GeneratePage(sim.NewRand(2), webgen.WikiHowLike())
	spec := experiments.LoadSpec{
		Page: page, Site: webgen.Materialize(page), DNSLatency: sim.Millisecond,
		Shells:  []shells.Shell{shells.NewDelayShell(30 * sim.Millisecond)},
		Scratch: experiments.NewScratch(),
	}
	sim.EnableSchedStats(true)
	defer sim.EnableSchedStats(false)
	experiments.Load(spec) // warm the scratch with the sink on, so the count below starts clean
	start, _ := sim.SchedStatsSnapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Load(spec)
	}
	b.StopTimer()
	end, _ := sim.SchedStatsSnapshot()
	b.ReportMetric(float64(end.Fired-start.Fired)/float64(b.N), "events/op")
}

// --- Hot-path microbenches ---
//
// These isolate the three layers BenchmarkPageLoad composes — the event
// loop, the TCP transport over an emulated link, and the replay matcher —
// so a regression in any one of them is attributable from `go test -bench`
// output alone. All three report allocations; the loop and matcher paths
// are expected to stay at (or very near) zero allocs/op in steady state.

// BenchmarkLoopSchedule measures the scheduling primitive every simulated
// packet, timer, and browser event goes through.
//
// What one "op" covers: scheduling 64 events onto a warmed loop that
// already holds a standing population of future events — 32 clustered
// onto 8 distinct future timestamps (the packet-train shape: bursts share
// a box exit instant) and 32 at distinct timestamps (the timer/CPU-task
// shape) — then firing exactly those 64. One op is therefore 64
// schedule+fire round trips including clock advances, and ns/event
// (reported via ReportMetric) is the comparable per-event cost:
// elapsed / (64 * N). Compare ns/event across revisions, not ns/op, which
// also absorbs loop-warmup effects.
func BenchmarkLoopSchedule(b *testing.B) {
	// 1200 events over 100 timestamps is the queue depth and
	// ~12-events-per-timestamp clustering a replayed page load sustains
	// (see mm-bench -schedstats).
	b.Run("standing1200", func(b *testing.B) {
		benchLoopSchedule(b, 1200, 100)
	})
	// The many-flow regime: a 10k-flow contention cell keeps an order of
	// magnitude more timers and in-flight packets queued than a single page
	// load. The heap's per-event cost grows with log(depth); this row shows
	// by how much.
	b.Run("standing12k", func(b *testing.B) {
		benchLoopSchedule(b, 12000, 1000)
	})
}

// benchLoopSchedule runs the schedule+fire workload described above against
// a loop pre-loaded with a standing population of future events spread over
// the given number of distinct timestamps.
func benchLoopSchedule(b *testing.B, standing, spread int) {
	loop := sim.NewLoop()
	h := func(sim.Time) {}
	// Standing population at far-future deadlines: present in the
	// queue for every measured operation, never fired.
	for j := 0; j < standing; j++ {
		loop.Schedule(sim.Time(j%spread+1)*sim.Second*100_000, h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 32; j++ {
			// 8 distinct deadlines, 4 back-to-back events each: the
			// burst shape (a window of packets entering one box).
			loop.Schedule(sim.Time(j/4+1)*sim.Microsecond, h)
		}
		for j := 0; j < 32; j++ {
			// Distinct deadlines: the unclustered tail.
			loop.Schedule(sim.Time(100+j)*sim.Microsecond, h)
		}
		loop.RunUntil(loop.Now() + sim.Millisecond)
		if loop.Pending() != standing {
			b.Fatalf("standing population disturbed: %d", loop.Pending())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(64*b.N), "ns/event")
}

// BenchmarkContention measures the sharded many-flow engine (internal/engine):
// web + bulk + RPC tcpsim flows contending in one fq_codel cell. The flowsN
// rows scale the per-cell population from 100 to 10000 on a single warmed
// shard — ns/event (total wall clock over events fired) is the per-event
// cost of the whole stack (loop, pooled conns/segments/packets, qdisc) and
// must stay flat as flows grow; compare it against BenchmarkLoopSchedule's
// rows to see how much the packet path adds over bare scheduling.
// events/op (from ContentionResult.Events) is the exact work per op. The grid
// rows run 8 cells of 500 flows through Engine.Run at 1 and 4 shards: the
// shard-scaling (wall-clock) comparison, with byte-identical results. As
// with the Figure 2 parallel rows, shard counts tie on a single-core host —
// every cell is CPU-bound simulation.
func BenchmarkContention(b *testing.B) {
	up, err := trace.Constant(400_000_000, 1000)
	if err != nil {
		b.Fatal(err)
	}
	spec := func(flows int, seed uint64) engine.ContentionSpec {
		// Trimmed transfers so even the 10k row is dominated by concurrent
		// steady-state forwarding, not a handful of giant downloads.
		return engine.ContentionSpec{
			Seed:          seed,
			Flows:         flows,
			Mix:           engine.Mix{Web: 8, Bulk: 1, RPC: 1},
			Qdisc:         netem.QdiscSpec{Kind: netem.QdiscFQCoDel, Packets: 600, Flows: 256},
			Up:            up,
			Down:          up,
			ArrivalWindow: 500 * sim.Millisecond,
			WebTransfers:  1,
			WebThink:      10 * sim.Millisecond,
			WebMaxBytes:   32 << 10,
			BulkBytes:     64 << 10,
			RPCCalls:      2,
			RPCGap:        10 * sim.Millisecond,
		}
	}
	for _, flows := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("flows%d", flows), func(b *testing.B) {
			sh := engine.NewShard()
			sp := spec(flows, 0xbe7c)
			warm := engine.RunContention(sh, sp) // warm pools to steady state
			if warm.FlowsDone != flows || warm.Errors != 0 {
				b.Fatalf("warmup: done=%d errs=%d, want %d/0", warm.FlowsDone, warm.Errors, flows)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var events uint64
			var peak int
			for i := 0; i < b.N; i++ {
				r := engine.RunContention(sh, sp)
				events += r.Events
				peak = r.PeakConns
				if r.FlowsDone != flows {
					b.Fatalf("done=%d, want %d", r.FlowsDone, flows)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(peak), "peak-conns")
		})
	}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("grid8x500-shards%d", shards), func(b *testing.B) {
			e := engine.New(shards)
			cells := make([]string, 8)
			for i := range cells {
				cells[i] = fmt.Sprintf("bench/%d", i)
			}
			job := engine.Job{Cells: cells, Run: func(sh *engine.Shard, cell int, label string) any {
				return engine.RunContention(sh, spec(500, sim.DeriveSeed(3, label)))
			}}
			e.Run(job) // warm pools under the cold index-order deal
			e.Run(job) // measured runs deal heaviest first and steal
			b.ResetTimer()
			var events uint64
			for i := 0; i < b.N; i++ {
				for _, v := range e.Run(job) {
					r := v.(engine.ContentionResult)
					events += r.Events
					if r.FlowsDone != 500 {
						b.Fatalf("done=%d, want 500", r.FlowsDone)
					}
				}
			}
			b.ReportMetric(float64(shards), "shards")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

// BenchmarkEngine measures the engine's deal-and-steal scheduler itself on
// a synthetic power-law workload: 32 cells whose event counts span ~30x —
// the adversarial shape for any static placement, where one heavy cell can
// hold a whole run hostage. A cold run measures every cell, so measured
// iterations deal the heaviest cells first round-robin and steal at
// runtime. The planskew/postskew metrics report event imbalance before and
// after stealing — the machine-independent evidence of how far stealing
// levels the load even where wall clock ties (single-core hosts).
func BenchmarkEngine(b *testing.B) {
	noop := func(sim.Time) {}
	cells := make([]string, 32)
	weights := make([]int, 32)
	for i := range cells {
		cells[i] = fmt.Sprintf("skew/%d", i)
		weights[i] = 2000 / (i + 1) // power law: 2000, 1000, 666, ..., 62
	}
	job := engine.Job{Cells: cells, Run: func(sh *engine.Shard, cell int, label string) any {
		loop := sh.Loop()
		for k := 0; k < weights[cell]; k++ {
			loop.Schedule(sim.Time(k)*sim.Microsecond, noop)
		}
		loop.Run()
		return loop.Now()
	}}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("steal-shards%d", shards), func(b *testing.B) {
			e := engine.New(shards)
			e.Run(job) // cold index-order deal; measures every cell
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(job)
			}
			b.StopTimer()
			p := e.Placement()
			b.ReportMetric(p.PlannedEventSkew(), "planskew")
			b.ReportMetric(p.EventSkew(), "postskew")
			b.ReportMetric(float64(p.Steals()), "steals")
		})
	}
}

// BenchmarkMatcherLookup measures a replay-table lookup against a
// CNBC-sized archive with the precomputed candidate index and memoized
// request accessors: the per-request cost of every replayed fetch.
func BenchmarkMatcherLookup(b *testing.B) {
	page := webgen.GeneratePage(sim.NewRand(3), webgen.CNBCLike())
	site := webgen.Materialize(page)
	m := match.New(site)
	reqs := make([]*httpx.Request, len(site.Exchanges))
	for i, e := range site.Exchanges {
		reqs[i] = e.Request.Clone()
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if _, ok := m.Lookup(reqs[i%len(reqs)]); ok {
			hits++
		}
	}
	if hits != b.N {
		b.Fatalf("hits = %d, want %d", hits, b.N)
	}
}

// BenchmarkTCPTransfer measures a 1 MiB server-to-client transfer over a
// 5 ms delay link per iteration: handshake, slow start, pooled
// segment/packet/datagram lifecycle, and teardown. events/op is the
// events each transfer's loop fires.
func BenchmarkTCPTransfer(b *testing.B) {
	const total = 1 << 20
	payload := make([]byte, total)
	serverAP := nsim.AddrPort{Addr: nsim.ParseAddr("10.0.0.2"), Port: 80}
	clientAddr := nsim.ParseAddr("10.0.0.1")
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		loop := sim.NewLoop()
		network := nsim.NewNetwork(loop)
		cl := network.NewNamespace("client")
		sv := network.NewNamespace("server")
		cl.AddAddress(clientAddr)
		sv.AddAddress(serverAP.Addr)
		ce, se := nsim.Connect(cl, sv,
			netem.NewPipeline(netem.NewDelayBox(loop, 5*sim.Millisecond)),
			netem.NewPipeline(netem.NewDelayBox(loop, 5*sim.Millisecond)))
		cl.AddDefaultRoute(ce)
		sv.AddDefaultRoute(se)
		sstack := tcpsim.NewStack(sv)
		if err := sstack.Listen(serverAP, func(c *tcpsim.Conn) {
			c.OnData(func([]byte) {})
			c.WriteStable(payload)
			c.Close()
		}); err != nil {
			b.Fatal(err)
		}
		conn, err := tcpsim.NewStack(cl).Dial(clientAddr, serverAP)
		if err != nil {
			b.Fatal(err)
		}
		got := 0
		conn.OnData(func(p []byte) { got += len(p) })
		conn.Close()
		loop.Run()
		events += loop.Fired()
		if got != total {
			b.Fatalf("received %d bytes, want %d", got, total)
		}
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkScenarioScript measures what the chaos scheduler costs when
// nothing is happening: the packetpath row runs a 64-packet burst through
// a rate-limited link whose qdisc a ScenarioScript is watching, after
// every scripted transition has already fired. Off the transition
// instants the script is pure bookkeeping-at-rest — the packet path must
// stay at 0 allocs/op, same contract as the bare qdisc rows. The scenario
// row prices a full scripted mini-run (setup, three transitions with
// drain accounting, teardown), where allocation is expected: transitions
// append transcript entries and build replacement qdiscs.
func BenchmarkScenarioScript(b *testing.B) {
	const burst = 64
	b.Run("packetpath", func(b *testing.B) {
		loop := sim.NewLoop()
		q := netem.NewCoDel(netem.CoDelConfig{MaxPackets: 256})
		r := netem.NewRateBox(loop, 1_000_000_000, q)
		r.SetSink(func(*netem.Packet) {})
		script := netem.NewScenarioScript(loop)
		script.Watch(q)
		script.RateStep(sim.Millisecond, r, 2_000_000_000)
		script.SwapQdisc(2*sim.Millisecond, r,
			netem.QdiscSpec{Kind: netem.QdiscCoDel, Packets: 256}, netem.DrainHold)

		pkts := make([]*netem.Packet, burst)
		for i := range pkts {
			pkts[i] = &netem.Packet{Size: netem.MTU, Flow: uint64(i % 8)}
		}
		step := func() {
			for _, p := range pkts {
				r.Send(p)
			}
			loop.Run()
		}
		// Warm past both transition instants: the scripted mutations fire
		// here, so timed ops run the steady-state path a script is merely
		// attached to.
		step()
		if got := len(script.Transitions()); got != 2 {
			b.Fatalf("warmup fired %d transitions, want 2", got)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(burst*b.N), "ns/packet")
	})
	// The impairpath row prices the full impairment pipeline (4-state loss
	// → reorder → duplicate → corrupt) after a script has hot-swapped every
	// box once: steady state must stay at 0 allocs/op, same contract as the
	// bare box rows in BenchmarkImpair.
	b.Run("impairpath", func(b *testing.B) {
		loop := sim.NewLoop()
		loss := netem.NewLossBoxModel(netem.NewMarkov4State(0.05, 0.4, 0.3, 0.2, 0.02), sim.NewRand(3))
		reorder := netem.NewReorderBox(loop, 0.05, 0, 1, sim.Millisecond, sim.NewRand(4))
		dup := netem.NewDuplicateBox(0.05, 0, sim.NewRand(5))
		corrupt := netem.NewCorruptBox(0.05, 0, sim.NewRand(6))
		pipe := netem.NewPipeline(loss, reorder, dup, corrupt)
		pool := &netem.PacketPool{}
		pipe.SetSink(func(pkt *netem.Packet) { pool.Put(pkt) })
		script := netem.NewScenarioScript(loop)
		script.LossModelSwap(sim.Millisecond, loss, netem.NewMarkov4State(0.1, 0.5, 0.2, 0.3, 0.05))
		script.ReorderStep(sim.Millisecond, reorder, 0.1, 0)
		script.DuplicateStep(sim.Millisecond, dup, 0.1, 0)
		script.CorruptStep(sim.Millisecond, corrupt, 0.1, 0)
		step := func() {
			for i := 0; i < burst; i++ {
				pkt := pool.Get()
				pkt.Size = netem.MTU
				pkt.Flow = uint64(i % 8)
				pipe.Send(pkt)
			}
			loop.Run()
		}
		step() // fires all four scripted swaps and warms the pool
		if got := len(script.Transitions()); got != 4 {
			b.Fatalf("warmup fired %d transitions, want 4", got)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(burst*b.N), "ns/packet")
	})
	b.Run("scenario", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			loop := sim.NewLoop()
			q := netem.NewDropTail(0, 0)
			r := netem.NewRateBox(loop, 1_000_000, q)
			delivered := 0
			r.SetSink(func(*netem.Packet) { delivered++ })
			script := netem.NewScenarioScript(loop)
			script.Watch(q)
			script.RateStep(60*sim.Millisecond, r, 2_000_000)
			script.SwapQdisc(120*sim.Millisecond, r,
				netem.QdiscSpec{Kind: netem.QdiscCoDel}, netem.DrainHold)
			script.SwapQdisc(200*sim.Millisecond, r,
				netem.QdiscSpec{Packets: 4}, netem.DrainFlush)
			loop.Schedule(0, func(sim.Time) {
				for j := 0; j < 30; j++ {
					r.Send(&netem.Packet{Size: netem.MTU, Flow: uint64(j % 3)})
				}
			})
			loop.Run()
			script.Finish(loop.Now())
			if delivered == 0 {
				b.Fatal("scenario delivered nothing")
			}
		}
	})
}
