package main

import (
	"repro/internal/browser"
	"repro/internal/sim"
)

// layers tallies the per-layer counters a phase's ops report. Fields a
// workload cannot observe from outside the program stay zero.
type layers struct {
	// Page loads (replay, impaired).
	loads                              int
	requests, bytes, failedRes, misses int
	plts, loadSelf                     []float64
	// Wrapped shell boxes (traced phase only).
	boxPkts, boxCalls, boxSinks uint64
	boxArrived, boxDropped      uint64
	boxMaxQueue                 int
	impaired, transitions       uint64
	// Bulk downloads (impaired), on connections the benchmark owns.
	bulks                               int
	retx, fastRetx, timeouts, csumDrops uint64
	dupBytes, rcvdBytes                 uint64
	// Pools left outstanding at quiescence: leaks.
	poolOutstanding, connOutstanding int64
	// Contention cells; classEvents and classWallNs split 1k (index 0)
	// from 10k (index 1) flow cells.
	peakConns                int
	cells                    int
	events                   uint64
	classEvents, classWallNs [2]uint64
	qDrops, aqmMarks         uint64
	qMaxQueue                int
	// Engine runs, one per contention pass.
	jobs, steals                      int
	idleShare, eventSkew, plannedSkew float64
}

// addLoad folds one page load's result.
func (ly *layers) addLoad(r browser.Result) {
	ly.loads++
	ly.requests += r.Resources
	ly.bytes += r.Bytes
	ly.failedRes += r.Failed
	// A request the replay matcher cannot answer gets a 404, the only
	// non-200 status a replayed load sees.
	ly.misses += r.Errors
	ly.plts = append(ly.plts, r.PLT.Milliseconds())
}

// addBoxes folds the counters of the wrapped shell boxes the op that just
// ended used. The boxes of arm, if not nil, count as impairment boxes.
func (ly *layers) addBoxes(ts []*tracedShell, arm *tracedShell) {
	for _, s := range ts {
		for _, b := range s.boxes {
			st := b.Stats()
			ly.boxArrived += st.Arrived
			ly.boxDropped += st.Dropped
			ly.boxMaxQueue = max(ly.boxMaxQueue, st.MaxQueueLen)
			ly.boxPkts += b.pkts
			ly.boxCalls += b.calls
			ly.boxSinks += b.sinkCalls
			if s == arm {
				ly.impaired += impairedCount(b.inner)
			}
		}
	}
}

// ratio returns a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics from the traced phase (tp),
// the untraced phase of the same ops (un), the warm pass, the scheduler
// stats of the traced phase and the runtime counters around the untraced
// phase.
func layerMetrics(tr *tracer, warm, un, tp *phase, sched sim.SchedCounters, rt0, rt1 runtimeSample) map[string]metric {
	L, U := &tp.layers, &un.layers
	ops := float64(len(tp.samples))
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ms := func(prefix string) float64 { return float64(tr.stat(prefix).totalNs) / 1e6 }

	events := float64(sched.Fired)
	if L.cells > 0 {
		events = float64(L.events)
	}
	set("sim.events_per_op", ratio(events, ops), "count")
	set("sim.ns_per_event", ratio(sum(un.samples)*1e6, events), "ns")
	set("sim.ns_per_event.1k", ratio(float64(U.classWallNs[0]), float64(U.classEvents[0])), "ns")
	set("sim.ns_per_event.10k", ratio(float64(U.classWallNs[1]), float64(U.classEvents[1])), "ns")
	set("sim.max_pending", float64(sched.MaxPending), "count")
	set("sim.now_fast_share", ratio(float64(sched.NowFast), float64(sched.Scheduled)), "ratio")

	set("netem.pkts_per_op", ratio(float64(L.boxPkts), ops), "count")
	set("netem.ns_per_pkt", ratio(float64(tr.stat("netem.Send").selfNs), float64(L.boxPkts)), "ns")
	set("netem.pkts_per_batch", ratio(float64(L.boxPkts), float64(L.boxCalls)), "count")
	set("netem.drop_share", ratio(float64(L.boxDropped), float64(L.boxArrived)), "ratio")
	set("netem.drops_per_op", ratio(float64(L.boxDropped+L.qDrops), ops), "count")
	set("netem.aqm_marks_per_op", ratio(float64(L.aqmMarks), ops), "count")
	set("netem.max_queue", float64(max(L.boxMaxQueue, L.qMaxQueue)), "count")
	set("netem.impaired_per_op", ratio(float64(L.impaired), ops), "count")
	set("netem.script_transitions_per_op", ratio(float64(L.transitions), ops), "count")

	set("nsim.ns_per_crossing", ratio(float64(tr.stat("nsim.sink").selfNs), float64(L.boxSinks)), "ns")
	set("nsim.pool_outstanding", float64(warm.layers.poolOutstanding+U.poolOutstanding+L.poolOutstanding), "count")

	bulks := float64(L.bulks)
	set("tcpsim.retransmits_per_op", ratio(float64(L.retx), bulks), "count")
	set("tcpsim.fast_retransmits_per_op", ratio(float64(L.fastRetx), bulks), "count")
	set("tcpsim.timeouts_per_op", ratio(float64(L.timeouts), bulks), "count")
	set("tcpsim.checksum_drops_per_op", ratio(float64(L.csumDrops), bulks), "count")
	set("tcpsim.dup_bytes_share", ratio(float64(L.dupBytes), float64(L.rcvdBytes+L.dupBytes)), "ratio")
	set("tcpsim.peak_conns", float64(L.peakConns), "count")
	set("tcpsim.conn_pool_outstanding", float64(warm.layers.connOutstanding+U.connOutstanding+L.connOutstanding), "count")

	loads := float64(L.loads)
	set("browser.requests_per_op", ratio(float64(L.requests), loads), "count")
	set("browser.kb_per_op", ratio(float64(L.bytes)/1024, loads), "KB")
	set("browser.failed_per_op", ratio(float64(L.failedRes), loads), "count")
	set("browser.plt_ms_p50", medianOrZero(L.plts), "ms")
	set("match.miss_per_op", ratio(float64(L.misses), loads), "count")
	set("experiments.load_self_ms_p50", medianOrZero(L.loadSelf), "ms")

	set("webgen.corpus_ms", ms("webgen.GenerateCorpus")+ms("webgen.Materialize"), "ms")
	set("core.record_build_ms", ms("core.NewRecord"), "ms")
	set("core.record_run_ms", ms("core.Record"), "ms")
	set("recordshell.mb_recorded", tr.counters["recordshell.bytes"]/1e6, "MB")
	set("archive.encode_ms", ms("archive.WriteExchange"), "ms")
	set("archive.decode_ms", ms("archive.ReadExchange"), "ms")
	set("experiments.warm_ms", ms("experiments.warm"), "ms")
	set("trace.synth_ms", ms("trace.synth"), "ms")

	jobs := float64(L.jobs)
	run := tr.stat("engine.Engine.Run")
	set("engine.job_ms", ratio(float64(run.totalNs)/1e6, float64(run.count)), "ms")
	set("engine.idle_share", ratio(L.idleShare, jobs), "ratio")
	set("engine.steals_per_job", ratio(float64(L.steals), jobs), "count")
	set("engine.event_skew", ratio(L.eventSkew, jobs), "ratio")
	set("engine.planned_event_skew", ratio(L.plannedSkew, jobs), "ratio")

	uops := float64(len(un.samples))
	set("runtime.gc_cpu_share", ratio(rt1.gcCPU-rt0.gcCPU, rt1.busyCPU-rt0.busyCPU), "ratio")
	set("runtime.alloc_kb_per_op", ratio(float64(rt1.allocBytes-rt0.allocBytes)/1024, uops), "KB")
	set("runtime.allocs_per_op", ratio(float64(rt1.allocObjects-rt0.allocObjects), uops), "count")
	return m
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
