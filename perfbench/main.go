// Command perfbench is the repository's benchmark. It runs one of three
// closed-loop workloads against the public entry points of the emulator's
// packages, checks every op's output, and prints the end-to-end metrics
// (tracing off) or, with -trace 1, the per-layer metrics of a separate
// traced run of the same op sequence. Every packet in every workload moves
// through the simulated network on the virtual clock; nothing crosses a
// real link or the host's loopback interface.
//
// Run it from the repository root; run.sh builds it from the checkout:
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// # Workloads
//
// All three are closed loops: an experiment is a batch its user waits on,
// so there is no arrival rate. Each op sequence is a pure function of
// -seed. replay and impaired run one op at a time on one goroutine;
// contention runs each pass through a 2-shard engine.
//
//   - replay: the paper's own workload. Set-up records 32 sites, one from
//     each page-weight stratum of a seeded corpus with the paper's 500-site
//     distribution (median 20, p95 51 origins per site), through
//     RecordShell from the live-web model, and round-trips every exchange
//     through the archive format. An op is one experiments.Load of a
//     recorded site under one of five arms, site-major as in Figure 2:
//     ReplayShell alone, DelayShell 0 ms and LinkShell 1000 Mbit/s (with
//     Figure 2's per-shell forwarding delays), and DelayShell 30 ms +
//     LinkShell 14 Mbit/s with multi-origin and single-server replay
//     (Table 2).
//   - contention: the many-flow engine. An op is one engine.RunContention
//     cell; a pass is one engine.Run of the grid {constant, cellular} link
//     x {droptail, codel, fq_codel, pie} at 1,000 flows plus {droptail,
//     fq_codel} on the constant link at 10,000 flows, with
//     BenchmarkContention's trimmed web/bulk/RPC mix. The constant link is
//     BenchmarkContention's 400 Mbit/s, the cellular one
//     experiments.Contention's. The 1k/10k split puts per-flow state inside
//     and outside the CPU caches; the mixed cell sizes give the engine skew
//     to balance.
//   - impaired: the loss-recovery path. Ops rotate over six impairment arms
//     (4-state Markov loss, Bernoulli loss, reorder, duplicate, corrupt, and
//     a scripted arm with a rate step, a droptail->CoDel hot-swap and a
//     short outage). Each arm loads every page of a materialized corpus over
//     DelayShell 20 ms + a LinkShell with experiments.Linkchar's LTE link +
//     the arm, then runs one 1 MiB bulk download over the same shells on
//     connections the benchmark owns.
//
// # End-to-end metrics
//
// Measured with tracing off: ops_per_s (timed ops per wall second),
// op_ms_p50 and op_ms_tail (wall ms per op; the tail is the highest
// percentile leaving at least ten of the workload's fixed op count beyond
// it, printed with n), cpu_ms_per_op (process user+system CPU per op),
// setup_s (median of three set-ups: input generation, recording, archive
// round trip, trace synthesis and the warm pass) and peak_rss_mb (VmHWM
// once set-up and the fixed op count have run). Ops that fail an output
// check count in the result's failed field and in failed_frac.
//
// # Layers
//
// The traced run puts spans around the benchmark's own calls into each
// layer and around every Send/SendBatch into, and every sink call out of,
// each shell box (through a wrapping shells.Shell), and reads the layers'
// public counters. "Moves" names the end-to-end metric a layer metric
// should move, on the workload where that layer does the most work.
//
//	layer                        metrics                                   moves -> workload
//	sim                          sim.events_per_op, sim.ns_per_event(.1k,  ops_per_s, op_ms_tail -> contention
//	                             .10k), sim.max_pending, sim.now_fast_share
//	netem                        netem.pkts_per_op, netem.ns_per_pkt,      ops_per_s, cpu_ms_per_op -> contention
//	                             netem.pkts_per_batch, netem.drop_share,   (packet counts at shell boxes:
//	                             netem.drops_per_op, netem.aqm_marks_per_op, replay, impaired)
//	                             netem.max_queue
//	netem impair/script          netem.impaired_per_op,                    none: behaviour fingerprints -> impaired
//	                             netem.script_transitions_per_op
//	nsim                         nsim.ns_per_crossing, nsim.pool_outstanding ops_per_s -> contention
//	tcpsim                       tcpsim.{retransmits,fast_retransmits,     ops_per_s -> impaired
//	                             timeouts,checksum_drops}_per_op,
//	                             tcpsim.dup_bytes_share, tcpsim.peak_conns,
//	                             tcpsim.conn_pool_outstanding
//	browser/httpx/match/         browser.requests_per_op, browser.kb_per_op, op_ms_p50, ops_per_s -> replay
//	replayshell/dnssim           browser.failed_per_op, browser.plt_ms_p50,
//	                             match.miss_per_op,
//	                             experiments.load_self_ms_p50
//	record path: webgen/core/    webgen.corpus_ms, core.record_build_ms,    setup_s -> replay
//	recordshell/inet/archive/    core.record_run_ms, recordshell.mb_recorded, (trace.synth_ms -> impaired,
//	trace                        archive.encode_ms, archive.decode_ms,      contention)
//	                             experiments.warm_ms, trace.synth_ms
//	engine                       engine.job_ms, engine.idle_share,         ops_per_s -> contention
//	                             engine.steals_per_job, engine.event_skew,
//	                             engine.planned_event_skew
//	Go runtime                   runtime.gc_cpu_share,                     cpu_ms_per_op, peak_rss_mb -> replay;
//	                             runtime.alloc_kb_per_op, runtime.allocs_per_op setup_s
//	per package                  <module>.cpu_share                        that module's row
//	benchmark                    bench.trace_overhead, failed_frac         none
//
// Expected no change: the AQM qdiscs, the impairment boxes and the engine
// do no work in replay, so a change to them must read "no change" there;
// browser, httpx, match and the record path are absent from contention;
// impaired is the only workload with impairment or script work, and its
// fingerprints (netem.impaired_per_op, netem.script_transitions_per_op,
// tcpsim.*_per_op) must not move in a change that claims only speed.
//
// Metrics a layer cannot report from outside the program read 0: replay's
// and contention's connections, and contention's boxes, are built inside
// experiments.Load and engine.RunContention.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// workloadSpec names a workload and builds its inputs.
type workloadSpec struct {
	name string
	// build generates the workload's inputs from seed (recording spans
	// around the calls when tr is not nil). The warm pass follows it.
	build func(seed uint64, tr *tracer) (workload, error)
}

var workloads = []workloadSpec{
	{"replay", buildReplay},
	{"contention", buildContention},
	{"impaired", buildImpaired},
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: replay, contention or impaired")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "seconds the timed phase runs at least")
	traced := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload replay|contention|impaired, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(*spec, *seed, *seconds, stdout)
	} else {
		res, err = runTimed(*spec, *seed, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", spec.name, err)
		return 1
	}
	printMetrics(stdout, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printMetrics prints one human-readable line per metric, sorted by name.
func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// reportFailures prints the first recorded op failures.
func reportFailures(w io.Writer, phases ...*phase) {
	var errs []string
	for _, ph := range phases {
		errs = append(errs, ph.errs...)
	}
	if len(errs) > 0 {
		fmt.Fprintf(w, "failures:\n  %s\n", strings.Join(errs, "\n  "))
	}
}
