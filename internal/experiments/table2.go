package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Table2Config parameterizes Table 2 (cost of losing multi-origin
// structure).
type Table2Config struct {
	// Sites is the number of corpus sites loaded per cell.
	Sites int
	// Seed generates the corpus and roots the scenario matrix.
	Seed uint64
	// Delays and Rates define the grid (paper: {30,120,300} ms ×
	// {1,14,25} Mbit/s).
	Delays []sim.Time
	Rates  []int64
	// Shards is the engine shard count (<= 0: GOMAXPROCS).
	Shards int
}

// DefaultTable2 mirrors the paper's nine network configurations. The
// corpus is subsampled to keep a bench run tractable; pass Sites: 500 for
// the full corpus.
func DefaultTable2() Table2Config {
	return Table2Config{
		Sites: 60,
		Seed:  2,
		Delays: []sim.Time{
			30 * sim.Millisecond, 120 * sim.Millisecond, 300 * sim.Millisecond,
		},
		Rates:  []int64{1_000_000, 14_000_000, 25_000_000},
		Shards: 1,
	}
}

// Table2Cell is one (delay, rate) configuration's result.
type Table2Cell struct {
	Delay sim.Time
	Rate  int64
	// Diffs are per-site |single - multi| / multi PLT fractions.
	Diffs *stats.Sample
}

// Table2Result is the full grid.
type Table2Result struct {
	Cells []Table2Cell
}

// Cell returns the cell for (delay, rate), or nil.
func (t Table2Result) Cell(delay sim.Time, rate int64) *Table2Cell {
	for i := range t.Cells {
		if t.Cells[i].Delay == delay && t.Cells[i].Rate == rate {
			return &t.Cells[i]
		}
	}
	return nil
}

// Table2 loads each corpus site once with multi-origin replay and once
// with the single-server ablation, for every network configuration, and
// reports the distribution of per-site PLT differences (paper Table 2:
// 50th and 95th percentile difference). The grid is (delay × rate) ×
// site; each cell runs both replay arms back to back so the per-site
// difference is computed locally and merged in site order.
func Table2(cfg Table2Config) Table2Result {
	pages := corpusPages(cfg.Seed, cfg.Sites)
	sites := materializeAll(pages)

	type netconf struct {
		delay sim.Time
		rate  int64
	}
	var confs []netconf
	for _, delay := range cfg.Delays {
		for _, rate := range cfg.Rates {
			confs = append(confs, netconf{delay, rate})
		}
	}

	links := constantLinks(cfg.Rates)

	var cells []Cell
	for _, nc := range confs {
		for si := range pages {
			cells = append(cells, Cell{
				Site:  siteLabel(si),
				Shell: fmt.Sprintf("delay%v+rate%d", nc.delay, nc.rate),
			})
		}
	}
	results := runCells(cfg.Shards, cfg.Seed, cells, func(sh *engine.Shard, i int, _ Cell, _ uint64) float64 {
		nc := confs[i/len(pages)]
		page, site := pages[i%len(pages)], sites[i%len(pages)]
		link := links[nc.rate]
		mk := func() []shells.Shell {
			return []shells.Shell{
				shells.NewDelayShell(nc.delay),
				shells.NewLinkShell(link, link),
			}
		}
		sc := scratchFor(sh)
		multi := PLTms(LoadSpec{
			Page: page, Site: site, DNSLatency: sim.Millisecond, RequestCPU: DefaultRequestCPU, Shells: mk(),
			Scratch: sc,
		})
		single := PLTms(LoadSpec{
			Page: page, Site: site, DNSLatency: sim.Millisecond, RequestCPU: DefaultRequestCPU, Shells: mk(),
			SingleServer: true, Scratch: sc,
		})
		return stats.AbsRelDiff(single, multi)
	})
	var out Table2Result
	for ci, nc := range confs {
		acc := stats.NewAccumulator()
		for si := range pages {
			acc.Add(results[ci*len(pages)+si])
		}
		out.Cells = append(out.Cells, Table2Cell{
			Delay: nc.delay, Rate: nc.rate, Diffs: acc.Sample(),
		})
	}
	return out
}

// String renders the grid in the paper's layout: "p50%, p95%" per cell,
// rows = rates, columns = delays.
func (t Table2Result) String() string {
	if len(t.Cells) == 0 {
		return "Table 2: no cells\n"
	}
	// Recover the axes.
	var delays []sim.Time
	var rates []int64
	seenD := map[sim.Time]bool{}
	seenR := map[int64]bool{}
	for _, c := range t.Cells {
		if !seenD[c.Delay] {
			seenD[c.Delay] = true
			delays = append(delays, c.Delay)
		}
		if !seenR[c.Rate] {
			seenR[c.Rate] = true
			rates = append(rates, c.Rate)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: PLT difference without multi-origin preservation (50th, 95th pct; %d sites)\n",
		t.Cells[0].Diffs.Len())
	fmt.Fprintf(&b, "  %-12s", "")
	for _, d := range delays {
		fmt.Fprintf(&b, "%-18v", d)
	}
	b.WriteString("\n")
	for _, r := range rates {
		fmt.Fprintf(&b, "  %-12s", fmt.Sprintf("%g Mbit/s", float64(r)/1e6))
		for _, d := range delays {
			c := t.Cell(d, r)
			fmt.Fprintf(&b, "%-18s", fmt.Sprintf("%.1f%%, %.1f%%",
				c.Diffs.Median()*100, c.Diffs.Percentile(95)*100))
		}
		b.WriteString("\n")
	}
	b.WriteString("  (paper: 1 Mbit/s row ~2%, 10-28%; 14/25 Mbit/s rows 3-21%, 15-127%)\n")
	return b.String()
}
