package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/webgen"
)

// Table1Config parameterizes Table 1 (reproducibility across machines).
type Table1Config struct {
	// Loads per site per machine (paper: 100).
	Loads int
	// MachineSeeds are the host-noise seeds of the two "machines"; each is
	// folded into its machine's cell coordinates, so the two machines draw
	// independent jitter streams.
	MachineSeeds [2]uint64
	// CPUJitterSigma models load-to-load host noise; the paper's standard
	// deviations are within 1.6% of the mean.
	CPUJitterSigma float64
	// LinkRate and Delay are the reference network conditions the loads
	// run under.
	LinkRate int64
	Delay    sim.Time
	// Shards is the engine shard count (<= 0: GOMAXPROCS).
	Shards int
}

// DefaultTable1 mirrors the paper: 100 loads per site per machine.
func DefaultTable1() Table1Config {
	return Table1Config{
		Loads:          100,
		MachineSeeds:   [2]uint64{1001, 2002},
		CPUJitterSigma: 0.015,
		LinkRate:       14_000_000,
		Delay:          40 * sim.Millisecond,
		Shards:         1,
	}
}

// Table1Row is one site's result: per-machine mean ± stddev.
type Table1Row struct {
	Site     string
	Machines [2]*stats.Sample
}

// MeanGap is the relative difference of the two machines' means (paper:
// under 0.5%).
func (r Table1Row) MeanGap() float64 {
	return stats.AbsRelDiff(r.Machines[0].Mean(), r.Machines[1].Mean())
}

// MaxStdFrac is the largest ratio of stddev to mean across machines
// (paper: within 1.6%).
func (r Table1Row) MaxStdFrac() float64 {
	max := 0.0
	for _, m := range r.Machines {
		if f := m.StdDev() / m.Mean(); f > max {
			max = f
		}
	}
	return max
}

// Table1Result is the full table.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 loads CNBC-like and wikiHow-like pages Loads times on each of two
// simulated machines and reports mean ± stddev, as in Table 1. The grid
// is profile × machine × trial; each trial's host-noise jitter comes from
// a generator seeded by its own cell coordinates (with the machine's
// host-noise seed folded into the machine label), so per-load draws do not
// depend on how many loads ran before them or on which goroutine ran them.
func Table1(cfg Table1Config) Table1Result {
	down, err := trace.Constant(cfg.LinkRate, 2000)
	if err != nil {
		panic(err)
	}
	up, err := trace.Constant(cfg.LinkRate/4, 2000)
	if err != nil {
		panic(err)
	}
	profiles := []webgen.Profile{webgen.CNBCLike(), webgen.WikiHowLike()}
	pages := make([]*webgen.Page, len(profiles))
	for i, p := range profiles {
		pages[i] = webgen.GeneratePage(sim.NewRand(7), p)
	}
	sites := materializeAll(pages)

	var cells []Cell
	for _, p := range profiles {
		for mi := 0; mi < 2; mi++ {
			for trial := 0; trial < cfg.Loads; trial++ {
				cells = append(cells, Cell{
					Site:  p.Name,
					Shell: machineLabel(mi, cfg.MachineSeeds[mi]),
					Trial: trial,
				})
			}
		}
	}
	cellsPerProfile := 2 * cfg.Loads
	// The grid has no root seed of its own: the machine seeds in the cell
	// labels carry the host noise.
	results := runCells(cfg.Shards, 0, cells, func(sh *engine.Shard, i int, _ Cell, seed uint64) []float64 {
		pi := i / cellsPerProfile
		return []float64{PLTms(LoadSpec{
			Page: pages[pi], Site: sites[pi],
			DNSLatency: sim.Millisecond, RequestCPU: DefaultRequestCPU,
			Shells: []shells.Shell{
				shells.NewDelayShell(cfg.Delay),
				shells.NewLinkShell(up, down),
			},
			CPUJitterSigma: cfg.CPUJitterSigma,
			Rand:           sim.NewRand(seed),
			Scratch:        scratchFor(sh),
		})}
	})
	var out Table1Result
	for pi, p := range profiles {
		row := Table1Row{Site: p.Name}
		for mi := 0; mi < 2; mi++ {
			acc := stats.NewAccumulator()
			base := pi*cellsPerProfile + mi*cfg.Loads
			for trial := 0; trial < cfg.Loads; trial++ {
				acc.Add(results[base+trial]...)
			}
			row.Machines[mi] = acc.Sample()
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// machineLabel folds a machine's host-noise seed into its cell coordinate
// label, so changing a machine seed re-draws that machine's jitter stream
// without touching the other machine's cells.
func machineLabel(i int, seed uint64) string {
	return fmt.Sprintf("machine%d-%d", i+1, seed)
}

// String renders the table (paper: CNBC 7584±120 / 7612±111; wikiHow
// 4804±37 / 4800±37).
func (t Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table 1: page load times across two machines (mean ± stddev)\n")
	fmt.Fprintf(&b, "  %-18s %-16s %-16s %-10s %-10s\n",
		"site", "machine 1", "machine 2", "mean gap", "max std/mean")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-18s %-16s %-16s %9.2f%% %9.2f%%\n",
			r.Site, r.Machines[0].Summary("ms"), r.Machines[1].Summary("ms"),
			r.MeanGap()*100, r.MaxStdFrac()*100)
	}
	b.WriteString("  (paper: means <0.5% apart; stddevs within 1.6% of mean)\n")
	return b.String()
}
