package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SweepConfig declares an open-ended scenario sweep: every corpus site
// loaded Trials times under every (delay × rate [× loss]) shell stack.
// Unlike the fixed paper artifacts, the sweep grid is arbitrary — this is
// the "as many scenarios as you can imagine" workload the sharded engine
// exists for, and the cell count (len(Delays)·len(Rates)·max(1,
// len(LossProbs))·Sites·Trials) grows multiplicatively.
type SweepConfig struct {
	// Sites is the corpus size; Seed generates the corpus and roots the
	// scenario grid.
	Sites int
	Seed  uint64
	// Trials is the number of jittered loads per (site, stack) coordinate.
	Trials int
	// Delays, Rates and LossProbs span the stack grid. An empty LossProbs
	// means no loss stage; a zero loss probability adds no LossShell.
	Delays    []sim.Time
	Rates     []int64
	LossProbs []float64
	// Shards is the engine shard count (<= 0: GOMAXPROCS).
	Shards int
}

// DefaultSweep is a modest grid that still exercises every axis: 3 stacks
// × 2 loss settings × 20 sites × 2 trials.
func DefaultSweep() SweepConfig {
	return SweepConfig{
		Sites: 20, Seed: 4, Trials: 2,
		Delays:    []sim.Time{30 * sim.Millisecond, 120 * sim.Millisecond},
		Rates:     []int64{14_000_000},
		LossProbs: []float64{0, 0.01},
		Shards:    1,
	}
}

// SweepStack is one emulation stack of the sweep grid.
type SweepStack struct {
	Delay sim.Time
	Rate  int64
	Loss  float64
}

// Label is the stack's cell-coordinate label; it feeds per-cell seed
// derivation, so two distinct stacks never share random streams.
func (s SweepStack) Label() string {
	l := fmt.Sprintf("delay%v+%gMbit", s.Delay, float64(s.Rate)/1e6)
	if s.Loss > 0 {
		l += fmt.Sprintf("+loss%g", s.Loss)
	}
	return l
}

// SweepRow is the merged PLT distribution of one stack across all sites
// and trials.
type SweepRow struct {
	Stack SweepStack
	PLT   *stats.Sample
}

// SweepResult is the full sweep, one row per stack in grid order.
type SweepResult struct {
	Rows  []SweepRow
	Cells int // total grid cells executed
}

// Sweep runs the declared grid through the engine and merges per-stack
// PLT distributions in fixed (stack-major, site, trial) order.
func Sweep(cfg SweepConfig) SweepResult {
	pages := corpusPages(cfg.Seed, cfg.Sites)
	sites := materializeAll(pages)
	losses := cfg.LossProbs
	if len(losses) == 0 {
		losses = []float64{0}
	}
	var stacks []SweepStack
	for _, d := range cfg.Delays {
		for _, r := range cfg.Rates {
			for _, l := range losses {
				stacks = append(stacks, SweepStack{Delay: d, Rate: r, Loss: l})
			}
		}
	}

	links := constantLinks(cfg.Rates)

	var cells []Cell
	for _, st := range stacks {
		for si := range pages {
			for t := 0; t < cfg.Trials; t++ {
				cells = append(cells, Cell{Site: siteLabel(si), Shell: st.Label(), Trial: t})
			}
		}
	}
	perStack := len(pages) * cfg.Trials
	results := runCells(cfg.Shards, cfg.Seed, cells, func(sh *engine.Shard, i int, _ Cell, seed uint64) float64 {
		st := stacks[i/perStack]
		si := (i % perStack) / cfg.Trials
		page, site := pages[si], sites[si]
		link := links[st.Rate]
		stack := []shells.Shell{
			shells.NewDelayShell(st.Delay),
			shells.NewLinkShell(link, link),
		}
		if st.Loss > 0 {
			// The loss stream is part of the scenario: derive it from the
			// cell seed so it is stable per coordinate.
			stack = append(stack, &shells.LossShell{
				UpProb: st.Loss, DownProb: st.Loss,
				Seed: sim.DeriveSeed(seed, "loss"),
			})
		}
		return PLTms(LoadSpec{
			Page: page, Site: site,
			DNSLatency: sim.Millisecond, RequestCPU: DefaultRequestCPU,
			Shells:         stack,
			CPUJitterSigma: hostJitterSigma,
			Rand:           sim.NewRand(sim.DeriveSeed(seed, "jitter")),
			Scratch:        scratchFor(sh),
		})
	})
	out := SweepResult{Cells: len(cells)}
	for si, st := range stacks {
		acc := stats.NewAccumulator()
		for j := 0; j < perStack; j++ {
			acc.Add(results[si*perStack+j])
		}
		out.Rows = append(out.Rows, SweepRow{Stack: st, PLT: acc.Sample()})
	}
	return out
}

// String renders the sweep as a table: one row per stack with PLT
// median/p95/max across all sites and trials.
func (r SweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario sweep: %d stacks x %d loads (%d cells)\n",
		len(r.Rows), safeDiv(r.Cells, len(r.Rows)), r.Cells)
	fmt.Fprintf(&b, "  %-32s %10s %10s %10s\n", "stack", "median ms", "p95 ms", "max ms")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-32s %10.0f %10.0f %10.0f\n",
			row.Stack.Label(), row.PLT.Median(), row.PLT.Percentile(95), row.PLT.Max())
	}
	return b.String()
}

func safeDiv(a, b int) int {
	if b == 0 {
		return 0
	}
	return a / b
}
