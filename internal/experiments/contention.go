package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ContentionConfig declares the many-flow contention experiment: a
// population of web + bulk + RPC tcpsim flows contending in one qdisc'd
// cell, swept over the same 8-qdisc × 2-link grid as the bufferbloat
// experiment. Where bufferbloat measures one page against one bulk flow,
// this measures what each discipline does to whole traffic classes when
// hundreds-to-thousands of flows share the bottleneck — the many-user axis
// of the ROADMAP's north star. Cells run on the sharded engine: each cell
// is deterministic given its label-derived seed, so the artifact is
// byte-identical at any Shards value.
type ContentionConfig struct {
	// Seed roots every cell's random streams and the cellular trace.
	Seed uint64
	// Flows is the per-cell flow population; Mix its class ratio.
	Flows int
	Mix   engine.Mix
	// Shards is the engine shard count (<= 0: GOMAXPROCS).
	Shards int
	// BulkBytes sizes the bulk class's downloads.
	BulkBytes int
	// OneWayDelay is the propagation delay either side of the queue.
	OneWayDelay sim.Time
}

// DefaultContention returns the reference configuration: 96 flows at 6:1:3
// over the 12 Mbit/s constant and synthetic cellular links.
func DefaultContention() ContentionConfig {
	return ContentionConfig{
		Seed:        17,
		Flows:       96,
		Mix:         engine.Mix{Web: 6, Bulk: 1, RPC: 3},
		Shards:      1,
		BulkBytes:   256 << 10,
		OneWayDelay: 20 * sim.Millisecond,
	}
}

// ContentionRow is one (link, qdisc) cell of the sweep.
type ContentionRow struct {
	Link   string
	Qdisc  netem.QdiscSpec
	Result engine.ContentionResult
}

// ContentionSweepResult is the full grid in link-major order. Placement is
// the run's per-shard load report; it depends on the shard count, so
// String() deliberately omits it — callers print it separately as a
// diagnostic (mm-bench does, after the artifact).
type ContentionSweepResult struct {
	Flows     int
	Mix       engine.Mix
	Rows      []ContentionRow
	Placement engine.Placement
}

// Contention runs the grid on the sharded engine. Each cell's spec derives
// its seed from the root seed and the cell label alone, and each cell runs
// to completion on whichever shard the engine deals or steals it onto;
// results land index-aligned, so the rendered artifact does not depend on
// Shards.
func Contention(cfg ContentionConfig) ContentionSweepResult {
	// The qdisc grid is bufferbloat's at its default buffer depths.
	qdiscs := bufferbloatQdiscs(DefaultBufferbloat())

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

	cells := make([]string, 0, len(links)*len(qdiscs))
	for _, l := range links {
		for _, spec := range qdiscs {
			cells = append(cells, l.name+"+"+spec.String())
		}
	}
	e := engine.New(cfg.Shards)
	out := e.Run(engine.Job{Cells: cells, Run: func(sh *engine.Shard, cell int, label string) any {
		l := links[cell/len(qdiscs)]
		spec := engine.ContentionSpec{
			Seed:               sim.DeriveSeed(cfg.Seed, "contention", label),
			Flows:              cfg.Flows,
			Mix:                cfg.Mix,
			Qdisc:              qdiscs[cell%len(qdiscs)],
			Up:                 l.up,
			Down:               l.down,
			OneWayDelay:        cfg.OneWayDelay,
			BulkBytes:          cfg.BulkBytes,
			TrackClassSojourns: true,
		}
		return engine.RunContention(sh, spec)
	}})

	res := ContentionSweepResult{Flows: cfg.Flows, Mix: cfg.Mix, Placement: e.Placement()}
	for i, v := range out {
		res.Rows = append(res.Rows, ContentionRow{
			Link:   links[i/len(qdiscs)].name,
			Qdisc:  qdiscs[i%len(qdiscs)],
			Result: v.(engine.ContentionResult),
		})
	}
	return res
}

// String renders the sweep as two tables: per-cell totals, then the
// per-class attribution (byte share, queue sojourn, transfer latency).
func (r ContentionSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Contention: %d flows (web:bulk:rpc = %s) through one queue\n", r.Flows, r.Mix)
	fmt.Fprintf(&b, "  %-10s %-16s %6s %6s %8s %8s %7s %7s %7s %6s %6s\n",
		"link", "qdisc", "done", "errs", "dur s", "events", "taildrp", "aqmdrp", "aqmmark", "maxq", "peak")
	for _, row := range r.Rows {
		res := row.Result
		fmt.Fprintf(&b, "  %-10s %-16s %6d %6d %8.1f %8d %7d %7d %7d %6d %6d\n",
			row.Link, row.Qdisc.String(), res.FlowsDone, res.Errors, res.Duration.Seconds(),
			res.Events, res.TailDrops, res.AQMDrops, res.AQMMarks, res.MaxQueue, res.PeakConns)
	}
	b.WriteString("\nPer-class attribution: byte share of the contended queue, queue sojourn, transfer latency\n")
	fmt.Fprintf(&b, "  %-10s %-16s %-5s %6s %9s %7s %8s %8s %9s %9s %7s %7s\n",
		"link", "qdisc", "class", "xfers", "KB", "share%", "q_p50", "q_p95", "xfer_p50", "xfer_p95", "qdrops", "qmarks")
	for _, row := range r.Rows {
		var total uint64
		for _, st := range row.Result.Classes {
			total += st.QBytes
		}
		for cls, st := range row.Result.Classes {
			share := 0.0
			if total > 0 {
				share = 100 * float64(st.QBytes) / float64(total)
			}
			fmt.Fprintf(&b, "  %-10s %-16s %-5s %6d %9.0f %7.1f %6.1fms %6.1fms %7.0fms %7.0fms %7d %7d\n",
				row.Link, row.Qdisc.String(), engine.Class(cls).String(), st.Transfers,
				float64(st.Bytes)/1024, share, st.QP50Ms, st.QP95Ms,
				st.XferP50Ms, st.XferP95Ms, st.QDrops, st.QMarks)
		}
	}
	b.WriteString("  -> droptail-deep queues every class behind the bulk flows' standing backlog;\n")
	b.WriteString("     the AQMs hold per-class sojourn near target, and fq_codel isolates the\n")
	b.WriteString("     rpc class's latency from bulk entirely by giving each flow its own bucket\n")
	return b.String()
}
