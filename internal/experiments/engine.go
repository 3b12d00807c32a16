package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sim"
)

// Cell identifies one independent unit of experiment work: a single (site,
// shell-stack, trial) coordinate of a scenario grid. A cell's identity —
// not its execution order — determines its random seed, which is the
// foundation of the engine's determinism guarantee: Seed depends only on
// the grid's root seed and the three coordinate labels, so the cell draws
// the same random stream whether it runs first or last, alone or beside a
// thousand concurrent cells.
type Cell struct {
	// Site labels the page or corpus entry under test (e.g. "site042",
	// "cnbc-like").
	Site string
	// Shell labels the emulation stack the load runs under (e.g.
	// "delay30ms+link14", "replay", "machine1").
	Shell string
	// Trial distinguishes repeated runs of the same (Site, Shell)
	// coordinate; drivers that load each coordinate once leave it zero.
	Trial int
}

// Seed derives the cell's deterministic RNG seed from the grid's root
// seed: DeriveSeed(root, Site, Shell, Trial). Equal cells always derive
// equal seeds; any change to a coordinate label yields an unrelated seed.
func (c Cell) Seed(root uint64) uint64 {
	return sim.DeriveSeed(root, c.Site, c.Shell, fmt.Sprintf("%d", c.Trial))
}

// String renders the cell coordinate; it is the cell's engine label.
func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/%d", c.Site, c.Shell, c.Trial)
}

// runCells runs one engine cell per coordinate on an engine with the given
// shard count (<= 0: GOMAXPROCS) and returns the cells' values
// index-aligned with cells. Cell i runs under the label cells[i].String()
// and receives the seed cells[i].Seed(root).
//
// run must be pure up to its arguments: it may not mutate state shared
// with other cells (cross-cell inputs like generated pages, materialized
// sites and parsed traces are shared but immutable; the shard's loop and
// pools are the cell's alone while it runs), and all randomness must come
// from generators seeded with the supplied seed. Under those conditions
// the results are bit-identical at any shard count, because (1) each
// cell's seed is derived from its coordinates alone, (2) cells share no
// state, and (3) each result is written to the slot of the cell that
// produced it, never in completion order.
func runCells[T any](shards int, root uint64, cells []Cell, run func(sh *engine.Shard, i int, c Cell, seed uint64) T) []T {
	labels := make([]string, len(cells))
	for i, c := range cells {
		labels[i] = c.String()
	}
	vals := make([]T, len(cells))
	engine.New(shards).Run(engine.Job{Cells: labels, Run: func(sh *engine.Shard, i int, _ string) any {
		vals[i] = run(sh, i, cells[i], cells[i].Seed(root))
		return nil
	}})
	return vals
}
