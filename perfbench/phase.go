package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/sim"
)

// setupReps is how many times a timed run sets the workload up; setup_s is
// the median.
const setupReps = 3

// outDir receives the traced run's span dump and CPU profile.
const outDir = ".bench_build/trace"

// workload is a set-up workload: its inputs are built and its op sequence
// is fixed.
type workload interface {
	// passLen is the number of ops in one pass of the op sequence.
	passLen() int
	// minPasses is how many passes a timed phase runs at least. Times
	// passLen it is the workload's fixed op count, which fixes the
	// percentile op_ms_tail reports.
	minPasses() int
	// runPass runs the op sequence once, reporting every op to ph. When
	// ph.tr is set it runs the same ops with spans and counters on.
	runPass(ph *phase)
}

// phase collects the ops of one or more passes.
type phase struct {
	// tr is nil when tracing is off.
	tr *tracer
	// twins are the warm pass's per-op digests; nil during the warm pass.
	twins []uint64
	// pass is the index of the pass being run.
	pass int
	// digests are the first pass's per-op digests, in op order.
	digests []uint64
	// samples are wall milliseconds per op, in completion order.
	samples           []float64
	attempted, failed int
	errs              []string
	layers            layers
}

// done records one op: its wall time, the digest of its virtual result,
// and the error its output checks found (nil if none). An op whose digest
// differs from its warm-pass twin fails too.
func (ph *phase) done(op int, wall time.Duration, d uint64, err error) {
	ph.attempted++
	ph.samples = append(ph.samples, float64(wall.Nanoseconds())/1e6)
	if ph.pass == 0 {
		ph.digests = append(ph.digests, d)
	}
	if err == nil && ph.twins != nil && d != ph.twins[op] {
		err = fmt.Errorf("virtual result differs from its warm-pass twin")
	}
	if err != nil {
		ph.failed++
		if len(ph.errs) < 8 {
			ph.errs = append(ph.errs, fmt.Sprintf("pass %d op %d: %v", ph.pass, op, err))
		}
	}
}

// inArm prefixes a failed output check with the arm the op ran under.
func inArm(arm string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s arm: %w", arm, err)
}

// timedPhase runs passes until at least min passes are done and seconds
// have passed, or exactly passes passes when passes > 0. Besides the wall
// and CPU time it returns the process's peak RSS as it stood once the
// workload's fixed op count (minPasses passes) had run: a fixed amount of
// work, so the figure does not depend on how many passes the host managed.
func timedPhase(w workload, ph *phase, seconds float64, passes int) (wall, cpu time.Duration, rssMB float64, err error) {
	c0, t0 := cpuTime(), time.Now()
	for ph.pass = 0; ; ph.pass++ {
		if passes > 0 && ph.pass == passes {
			break
		}
		if passes == 0 && ph.pass >= w.minPasses() && time.Since(t0).Seconds() >= seconds {
			break
		}
		w.runPass(ph)
		if ph.pass+1 == w.minPasses() {
			if rssMB, err = peakRSSMB(); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	return time.Since(t0), cpuTime() - c0, rssMB, nil
}

// setUp builds the workload's inputs and runs its warm pass, which warms
// pools and records every op's virtual result as its determinism twin.
func setUp(spec workloadSpec, seed uint64, tr *tracer) (workload, *phase, error) {
	w, err := spec.build(seed, tr)
	if err != nil {
		return nil, nil, err
	}
	warm := &phase{}
	if tr != nil {
		tr.lanes[0].begin(tr.name("experiments.warm"))
	}
	w.runPass(warm)
	if tr != nil {
		tr.lanes[0].end()
	}
	return w, warm, nil
}

func runTimed(spec workloadSpec, seed uint64, seconds int, out io.Writer) (result, error) {
	var (
		w      workload
		warm   *phase
		setups []float64
		prev   uint64
		extra  []string
	)
	res := result{Metrics: map[string]metric{}}
	for r := 0; r < setupReps; r++ {
		// Collect the previous set-up's inputs first, so that set-ups do
		// not stack up in memory.
		w, warm = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		w, warm, err = setUp(spec, seed, nil)
		if err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		res.Attempted += warm.attempted
		res.Failed += warm.failed
		d := digestAll(warm.digests)
		if r > 0 && d != prev {
			res.Failed++
			extra = append(extra, fmt.Sprintf("set-up %d: warm-pass digest %016x differs from %016x", r, d, prev))
		}
		prev = d
	}
	runtime.GC()
	ph := &phase{twins: warm.digests}
	wall, cpu, rss, err := timedPhase(w, ph, float64(seconds), 0)
	if err != nil {
		return res, err
	}
	res.Attempted += ph.attempted
	res.Failed += ph.failed

	ops := len(ph.samples)
	sorted := append([]float64(nil), ph.samples...)
	sort.Float64s(sorted)
	fixed := w.passLen() * w.minPasses()
	tail := tailPercentile(fixed)
	res.Metrics["ops_per_s"] = metric{float64(ops) / wall.Seconds(), "1/s"}
	res.Metrics["op_ms_p50"] = metric{percentile(sorted, 50), "ms"}
	res.Metrics["op_ms_tail"] = metric{percentile(sorted, tail), "ms"}
	res.Metrics["cpu_ms_per_op"] = metric{float64(cpu.Nanoseconds()) / 1e6 / float64(ops), "ms"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	res.Correct = res.Failed == 0

	fmt.Fprintf(out, "workload %s seed %d: %d timed ops in %d passes of %d (%.2f s); set-up x%d: %.3f s each\n",
		spec.name, seed, ops, ph.pass, w.passLen(), wall.Seconds(), setupReps, setups)
	fmt.Fprintf(out, "digest %s %016x\n", spec.name, digestAll(ph.digests))
	fmt.Fprintf(out, "op_ms_tail is p%g: the highest percentile leaving >= 10 of the fixed %d ops (%d passes) beyond it; n=%d samples\n",
		tail, fixed, w.minPasses(), ops)
	fmt.Fprintf(out, "failed_frac %g (%d of %d checked ops failed)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	reportFailures(out, warm, ph)
	for _, e := range extra {
		fmt.Fprintln(out, "  "+e)
	}
	return res, nil
}

func runTraced(spec workloadSpec, seed uint64, seconds int, out io.Writer) (result, error) {
	res := result{Metrics: map[string]metric{}}
	// Lane 0 is the driving goroutine; lanes 1..2 are the contention
	// engine's shards.
	tr := newTracer(1 + contentionShards)
	// A loop pushes its counters to the sink only while the sink is on,
	// and a loop reused from set-up would otherwise push everything it
	// fired since it was made into the traced phase's totals. With the
	// sink on from the start every flush moves the loop's baseline; the
	// sink is zeroed just before the traced phase.
	sim.EnableSchedStats(true)
	defer sim.EnableSchedStats(false)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	profPath := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", spec.name, seed))
	prof, err := os.Create(profPath)
	if err != nil {
		return res, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return res, err
	}
	// The profile covers set-up and the untraced phase, so the per-package
	// shares carry no tracing overhead.
	t0 := time.Now()
	w, warm, err := setUp(spec, seed, tr)
	if err != nil {
		pprof.StopCPUProfile()
		prof.Close()
		return res, err
	}
	setupWall := time.Since(t0)
	runtime.GC()
	rt0 := readRuntime()
	un := &phase{twins: warm.digests}
	unWall, _, _, err := timedPhase(w, un, float64(seconds), 0)
	if err != nil {
		pprof.StopCPUProfile()
		prof.Close()
		return res, err
	}
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return res, err
	}

	runtime.GC()
	sim.ResetSchedStats()
	tp := &phase{twins: warm.digests, tr: tr}
	trWall, _, _, err := timedPhase(w, tp, 0, un.pass)
	if err != nil {
		return res, err
	}
	sched, _ := sim.SchedStatsSnapshot()

	res.Attempted = warm.attempted + un.attempted + tp.attempted
	res.Failed = warm.failed + un.failed + tp.failed
	dWarm, dUn, dTr := digestAll(warm.digests), digestAll(un.digests), digestAll(tp.digests)
	if dTr != dUn || dUn != dWarm {
		res.Failed++
		fmt.Fprintf(out, "digest mismatch: warm %016x untraced %016x traced %016x\n", dWarm, dUn, dTr)
	}

	shares, err := cpuShares(profPath)
	if err != nil {
		return res, err
	}
	spanPath := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.tsv", spec.name, seed))
	nSpans, err := tr.dump(spanPath)
	if err != nil {
		return res, err
	}

	m := layerMetrics(tr, warm, un, tp, sched, rt0, rt1)
	m["bench.trace_overhead"] = metric{sum(tp.samples)/sum(un.samples) - 1, "ratio"}
	m["failed_frac"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	for _, mod := range cpuModules {
		m[mod+".cpu_share"] = metric{shares[mod], "ratio"}
	}
	res.Metrics = m
	res.Correct = res.Failed == 0

	fmt.Fprintf(out, "workload %s seed %d (traced run): set-up %.2f s; %d ops untraced (%.2f s), %d traced (%.2f s)\n",
		spec.name, seed, setupWall.Seconds(), len(un.samples), unWall.Seconds(), len(tp.samples), trWall.Seconds())
	fmt.Fprintf(out, "digest %s %016x (untraced %016x)\n", spec.name, dTr, dUn)
	fmt.Fprintf(out, "spans: %d stored in %s (%d more aggregated only); CPU profile %s (bench %.3f, other %.3f of samples)\n",
		nSpans, spanPath, tr.unstored(), profPath, shares["bench"], shares["other"])
	fmt.Fprintf(out, "failed_frac %g (%d of %d checked ops failed)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	reportFailures(out, warm, un, tp)
	return res, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
