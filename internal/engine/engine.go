// Package engine is the sharded many-user emulation engine: it partitions
// independent simulation cells across N shards, each shard owning a private
// event loop and private object pools, and runs every shard to completion
// with zero cross-shard locking on the packet/event path.
//
// The experiments package's Runner already parallelizes scenario matrices,
// but its unit of state reuse is a sync.Pool'd Scratch: which warmed pools a
// cell draws is scheduling-dependent, and a cell's work cannot be pinned to
// a core. The engine makes the partitioning itself deterministic, in the
// style NetChain assigns keys to chain replicas by consistent hashing: a
// cell's shard is a pure function of its label and the shard count, never of
// execution timing. Within a shard, cells run sequentially (run to
// completion) on the shard's own sim.Loop, nsim.PoolSet, tcpsim.SegmentPool
// and tcpsim.ConnPool, so the hot path touches no shared mutable state and
// needs no synchronization; the only cross-shard communication is each
// cell's result landing in its own slot of the output slice. Results
// therefore merge order-free: an artifact assembled from the index-aligned
// output is byte-identical at any shard count, which the determinism suite
// verifies at 1, 2 and 8 shards.
//
// Placement is two-level. Level 1 plans: with a cost oracle (per-label event
// counts retained from the engine's previous Run, or primed via Prime) the
// cells are LPT bin-packed — heaviest first onto the least-loaded shard;
// cold, the plan falls back to the ShardFor label hash. Level 2 balances at
// runtime: each shard claims cells from its own queue through an atomic
// cursor, and a shard whose queue drains steals whole cells from the victim
// with the most unclaimed weight. Because a cell's seed derives from its
// label and never from the shard that happens to execute it, any steal
// interleaving produces the identical output; stealing moves only wall-clock
// time and pool warmth. Jobs that thread per-label state through a shard opt
// out with Affinity, which restores strict ShardFor pinning.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// Shard is one run-to-completion execution lane: an event loop plus every
// pool the simulation hot path allocates from. A shard serves one cell at a
// time; the loop and pools are reset-and-reused across the shard's
// sequential cells, so pool warmup is paid once per shard rather than once
// per cell. Nothing in a Shard is safe for concurrent use — the engine is
// what guarantees each shard stays on a single goroutine.
type Shard struct {
	index   int
	labels  pprof.LabelSet
	loop    *sim.Loop
	pools   *nsim.PoolSet
	segs    *tcpsim.SegmentPool
	conns   *tcpsim.ConnPool
	payload []byte
	scratch map[string]any
}

// NewShard returns a standalone shard (index 0). Benchmarks and tests that
// drive one cell directly use this; experiment drivers go through New/Run.
func NewShard() *Shard { return newShard(0) }

func newShard(index int) *Shard {
	return &Shard{
		index:  index,
		labels: pprof.Labels("shard", strconv.Itoa(index)),
		loop:   sim.NewLoop(),
		pools:  &nsim.PoolSet{},
		segs:   &tcpsim.SegmentPool{},
		conns:  tcpsim.NewConnPool(),
	}
}

// Index is the shard's position in its engine, 0-based.
func (sh *Shard) Index() int { return sh.index }

// Loop returns the shard's event loop, reset and warmed, for the next cell.
func (sh *Shard) Loop() *sim.Loop {
	sh.loop.Reset()
	return sh.loop
}

// Pools returns the shard's packet/datagram pool set, for
// nsim.NewNetworkPooled.
func (sh *Shard) Pools() *nsim.PoolSet { return sh.pools }

// Segments returns the shard's TCP segment pool, for tcpsim.NewStackPool.
func (sh *Shard) Segments() *tcpsim.SegmentPool { return sh.segs }

// Conns returns the shard's connection pool, for tcpsim.Stack.SetConnPool.
func (sh *Shard) Conns() *tcpsim.ConnPool { return sh.conns }

// Payload returns a stable all-zero buffer of at least n bytes, grown on
// demand and reused across the shard's cells. Servers serve response bodies
// from it via WriteStable, so a cell's transfer volume never shows up as
// per-cell allocation. The buffer must never be written.
func (sh *Shard) Payload(n int) []byte {
	if cap(sh.payload) < n {
		sh.payload = make([]byte, n)
	}
	return sh.payload[:n]
}

// Scratch returns the shard-local value stored under key, creating it with
// mk on first use. Workloads park reusable per-shard state here (pooled
// session structs, accumulators) so it survives across the shard's cells
// without living in package globals. Shard-local like everything else on
// Shard: never share a scratch value across shards.
func (sh *Shard) Scratch(key string, mk func() any) any {
	if sh.scratch == nil {
		sh.scratch = make(map[string]any)
	}
	v, ok := sh.scratch[key]
	if !ok {
		v = mk()
		sh.scratch[key] = v
	}
	return v
}

// Engine is a fixed set of shards. The zero shard count convention follows
// Runner.Parallel: <= 0 means GOMAXPROCS(0).
type Engine struct {
	shards    []*Shard
	placement Placement
	// weights is the cost oracle: per-label loop-event counts retained from
	// the engine's most recent Run (or injected via Prime). Consulted by the
	// LPT planner; labels never seen cost the mean of the known ones.
	weights map[string]uint64
	// Scheduler scratch, reused across Runs so the plan/claim path stays
	// allocation-free after the first fan-out at a given shape.
	queues []shardQueue
	order  []int32
	wts    []uint64
	loads  []uint64
}

// shardQueue is one shard's planned slice of the job. cells holds cell
// indices in execution order; prefix[i] is the summed weight of cells[:i]
// (len(cells)+1 entries), so the unclaimed weight is one subtraction. The
// cursor is the single point of cross-shard contention: owner and thieves
// all claim by fetch-add, so every cell is claimed exactly once. The pad
// keeps neighbouring cursors off one cache line.
type shardQueue struct {
	cells  []int32
	prefix []uint64
	cursor atomic.Int64
	_      [64]byte
}

// claim takes the next unclaimed cell, or -1 when the queue is drained.
func (q *shardQueue) claim() int {
	i := q.cursor.Add(1) - 1
	if int(i) < len(q.cells) {
		return int(q.cells[i])
	}
	return -1
}

// remaining estimates the unclaimed weight left in the queue.
func (q *shardQueue) remaining() uint64 {
	c := q.cursor.Load()
	if int(c) >= len(q.cells) {
		return 0
	}
	return q.prefix[len(q.cells)] - q.prefix[c]
}

// CellLoad is one cell's slice of a Run: where the plan put it, which shard
// actually executed it, and how many loop events it fired there.
type CellLoad struct {
	Label   string
	Planned int
	Ran     int
	Events  uint64
}

// ShardLoad is one shard's share of a Run: how many cells it executed, how
// many loop events those cells fired, how many of the cells were stolen
// from another shard's plan, and how long the shard's worker was busy.
// WallNs is wall-clock and therefore diagnostic only — it depends on the
// host — unlike Events, which is machine-independent.
type ShardLoad struct {
	Cells  int
	Events uint64
	Stolen int
	WallNs int64
}

// Placement reports how the last Run's work spread across shards. Cells
// differ in weight, so the event skew is the honest number: a max/mean of
// 1.0 is a perfectly level run, 2.0 means the busiest shard did double the
// average. PlannedEventSkew scores the plan (level 1) alone; EventSkew
// scores what actually ran after stealing (level 2). The placement depends
// on the shard count and on steal timing, so it is diagnostic output —
// experiment artifacts, which must be byte-identical at any shard count,
// must not embed it.
type Placement struct {
	Shards []ShardLoad
	Cells  []CellLoad
	// Oracle records whether the plan was LPT over retained weights (true)
	// or the cold-start label hash (false).
	Oracle bool
}

// TotalEvents sums loop events over all shards.
func (p Placement) TotalEvents() uint64 {
	var total uint64
	for _, s := range p.Shards {
		total += s.Events
	}
	return total
}

// EventSkew returns the busiest shard's event count over the mean event
// count of non-idle capacity (max/mean), 0 for an empty placement. This is
// the post-steal skew: events count on the shard that executed the cell.
func (p Placement) EventSkew() float64 {
	if len(p.Shards) == 0 {
		return 0
	}
	var max uint64
	for _, s := range p.Shards {
		if s.Events > max {
			max = s.Events
		}
	}
	total := p.TotalEvents()
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(p.Shards))
	return float64(max) / mean
}

// PlannedEventSkew returns the event skew the level-1 plan alone would have
// produced: each cell's events charged to the shard the plan assigned it,
// as if no stealing had happened. Comparing it with EventSkew isolates how
// much balance the stealing pass bought.
func (p Placement) PlannedEventSkew() float64 {
	if len(p.Shards) == 0 {
		return 0
	}
	planned := make([]uint64, len(p.Shards))
	var total uint64
	for _, c := range p.Cells {
		if c.Planned >= 0 && c.Planned < len(planned) {
			planned[c.Planned] += c.Events
			total += c.Events
		}
	}
	if total == 0 {
		return 0
	}
	var max uint64
	for _, ev := range planned {
		if ev > max {
			max = ev
		}
	}
	mean := float64(total) / float64(len(planned))
	return float64(max) / mean
}

// Steals counts cells that executed on a shard other than their planned one.
func (p Placement) Steals() int {
	var n int
	for _, s := range p.Shards {
		n += s.Stolen
	}
	return n
}

// Utilization is mean busy wall-time over the longest shard's busy
// wall-time, in (0, 1]: 1.0 means every worker finished together, 0.25 on
// four shards means three of them mostly idled. 0 when no wall time was
// recorded. Wall-clock, so host-dependent and diagnostic only.
func (p Placement) Utilization() float64 {
	var total, max int64
	for _, s := range p.Shards {
		total += s.WallNs
		if s.WallNs > max {
			max = s.WallNs
		}
	}
	if max == 0 {
		return 0
	}
	mean := float64(total) / float64(len(p.Shards))
	return mean / float64(max)
}

// Profile is the cost oracle's currency: per-label loop-event counts from a
// finished Run, suitable for Engine.Prime on this or another engine. An
// experiment runner that repeats a grid feeds repetition N's Profile into
// repetition N+1 so the plan starts hot.
type Profile map[string]uint64

// Profile extracts the per-label event counts of this placement.
func (p Placement) Profile() Profile {
	if len(p.Cells) == 0 {
		return nil
	}
	prof := make(Profile, len(p.Cells))
	for _, c := range p.Cells {
		prof[c.Label] = c.Events
	}
	return prof
}

// String renders the per-shard load table with the skew summary.
func (p Placement) String() string {
	var b strings.Builder
	plan := "hash"
	if p.Oracle {
		plan = "lpt"
	}
	fmt.Fprintf(&b, "shard placement (%d shards, %s plan):\n", len(p.Shards), plan)
	fmt.Fprintf(&b, "  %5s %6s %12s %7s %10s\n", "shard", "cells", "events", "stolen", "wall")
	for i, s := range p.Shards {
		fmt.Fprintf(&b, "  %5d %6d %12d %7d %10s\n",
			i, s.Cells, s.Events, s.Stolen, time.Duration(s.WallNs).Round(10*time.Microsecond))
	}
	fmt.Fprintf(&b, "  total events %d, steals %d, utilization %.2f\n",
		p.TotalEvents(), p.Steals(), p.Utilization())
	fmt.Fprintf(&b, "  event skew max/mean: planned %.2f, post-steal %.2f\n",
		p.PlannedEventSkew(), p.EventSkew())
	return b.String()
}

// Placement reports the per-shard load of the most recent Run.
func (e *Engine) Placement() Placement { return e.placement }

// Prime seeds the engine's cost oracle with per-label weights, typically a
// Placement.Profile() from an earlier run of the same grid (on any engine).
// The next Run plans with LPT over these weights instead of the cold label
// hash. Each Run refreshes the oracle with what it measured, so priming is
// only ever needed for the first fan-out.
func (e *Engine) Prime(p Profile) {
	if len(p) == 0 {
		return
	}
	if e.weights == nil {
		e.weights = make(map[string]uint64, len(p))
	}
	for label, ev := range p {
		e.weights[label] = ev
	}
}

// New returns an engine with n shards (n <= 0 means GOMAXPROCS(0)).
func New(n int) *Engine {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e := &Engine{shards: make([]*Shard, n)}
	for i := range e.shards {
		e.shards[i] = newShard(i)
	}
	return e
}

// NumShards reports the engine's shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// Shard returns shard i, for callers driving a single cell directly.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// ShardFor maps a cell label to its owning shard: a consistent, timing-free
// partition by hash of the label alone. Cells with the same label always
// land on the same shard of an n-shard engine, so any per-label state a
// workload threads through its shard stays shard-local; which shard that is
// has no effect on results (each cell's seed derives from its label, not
// its shard), only on which warmed pools serve it.
func ShardFor(label string, n int) int {
	return int(sim.DeriveSeed(0x51a4d, "shard", label) % uint64(n))
}

// Job is one fan-out: a list of cell labels and the function that runs one
// cell on its assigned shard. Run must derive all randomness from the cell
// label (sim.DeriveSeed) and must not touch state shared with other cells;
// under those conditions Engine.Run's output is independent of shard count
// and of which shard executes which cell.
type Job struct {
	// Cells enumerates the cell labels in output order.
	Cells []string
	// Run executes one cell on sh. cell is the index into Cells and label
	// is Cells[cell]. The returned value lands in slot cell of Run's output.
	Run func(sh *Shard, cell int, label string) any
	// Affinity pins every cell to ShardFor(label, n) and disables stealing,
	// for workloads that thread per-label state through a specific shard.
	// The default (false) lets the engine rebalance: LPT planning when the
	// cost oracle is warm, plus runtime cell stealing.
	Affinity bool
}

// Run executes the job and returns the results index-aligned with job.Cells.
//
// Cells are first planned onto shards: by ShardFor hash when job.Affinity is
// set or the cost oracle is cold, by weight-aware LPT bin-packing otherwise.
// Each shard's worker goroutine (pprof-labelled "shard=i") then drains its
// own queue through an atomic cursor; unless job.Affinity is set, a worker
// whose queue empties steals unclaimed cells from the most-loaded victim.
// Results land in index-aligned slots and every cell's behaviour is a pure
// function of its label, so the output is byte-identical for every shard
// count, plan and steal interleaving. The run's per-shard and per-cell load
// is recorded for Placement, and the measured per-label events refresh the
// cost oracle for the engine's next Run.
func (e *Engine) Run(job Job) []any {
	n := len(e.shards)
	out := make([]any, len(job.Cells))
	e.placement = Placement{
		Shards: make([]ShardLoad, n),
		Cells:  make([]CellLoad, len(job.Cells)),
	}
	e.plan(job)
	steal := !job.Affinity && n > 1
	if n == 1 || len(job.Cells) == 0 {
		e.runWorker(job, out, e.shards[0], false)
	} else {
		var wg sync.WaitGroup
		for s := range e.shards {
			if !steal && len(e.queues[s].cells) == 0 {
				continue
			}
			wg.Add(1)
			go func(sh *Shard) {
				defer wg.Done()
				e.runWorker(job, out, sh, steal)
			}(e.shards[s])
		}
		wg.Wait()
	}
	// Fold per-cell measurements into per-shard loads and refresh the
	// oracle. Single-writer by now — every worker has joined.
	if e.weights == nil {
		e.weights = make(map[string]uint64, len(job.Cells))
	}
	for i := range e.placement.Cells {
		c := &e.placement.Cells[i]
		load := &e.placement.Shards[c.Ran]
		load.Cells++
		load.Events += c.Events
		if c.Ran != c.Planned {
			load.Stolen++
		}
		e.weights[c.Label] = c.Events
	}
	return out
}

// plan fills the per-shard queues and the per-cell Planned slots. With a
// warm oracle (and stealing allowed) it LPT bin-packs: cells sorted by
// estimated weight descending, each placed on the currently lightest shard.
// Affinity jobs and cold starts use the ShardFor hash, which preserves
// label→shard pinning and index order within each shard.
func (e *Engine) plan(job Job) {
	n := len(e.shards)
	if len(e.queues) != n {
		e.queues = make([]shardQueue, n)
	}
	for s := range e.queues {
		q := &e.queues[s]
		q.cells = q.cells[:0]
		q.prefix = q.prefix[:0]
		q.cursor.Store(0)
	}
	wts, oracle := e.cellWeights(job)
	if oracle && !job.Affinity {
		// LPT: heaviest cell first onto the least-loaded shard. Ties break
		// on the lower cell index / lower shard index, so the plan is a
		// pure function of (labels, weights, n).
		ord := e.order[:0]
		for i := range job.Cells {
			ord = append(ord, int32(i))
		}
		sort.Slice(ord, func(a, b int) bool {
			wa, wb := wts[ord[a]], wts[ord[b]]
			if wa != wb {
				return wa > wb
			}
			return ord[a] < ord[b]
		})
		e.order = ord
		loads := append(e.loads[:0], make([]uint64, n)...)
		e.loads = loads
		for _, ci := range ord {
			s := 0
			for j := 1; j < n; j++ {
				if loads[j] < loads[s] {
					s = j
				}
			}
			e.queues[s].cells = append(e.queues[s].cells, ci)
			loads[s] += wts[ci]
		}
		e.placement.Oracle = true
	} else {
		for i, label := range job.Cells {
			s := ShardFor(label, n)
			e.queues[s].cells = append(e.queues[s].cells, int32(i))
		}
	}
	for s := range e.queues {
		q := &e.queues[s]
		q.prefix = append(q.prefix, 0)
		var sum uint64
		for _, ci := range q.cells {
			sum += wts[ci]
			q.prefix = append(q.prefix, sum)
		}
		for _, ci := range q.cells {
			e.placement.Cells[ci].Planned = s
		}
	}
	for i, label := range job.Cells {
		e.placement.Cells[i].Label = label
	}
}

// cellWeights estimates each cell's cost. With no retained weight for any of
// the job's labels the oracle is cold (second return false) and every cell
// weighs 1; otherwise known labels use their retained event count (clamped
// to >= 1 so prefix sums stay strictly increasing) and unknown labels weigh
// the mean of the known ones.
func (e *Engine) cellWeights(job Job) ([]uint64, bool) {
	wts := e.wts[:0]
	var sum uint64
	known := 0
	for _, label := range job.Cells {
		w := e.weights[label]
		if w > 0 {
			sum += w
			known++
		}
		wts = append(wts, w)
	}
	e.wts = wts
	if known == 0 {
		for i := range wts {
			wts[i] = 1
		}
		return wts, false
	}
	mean := sum / uint64(known)
	if mean == 0 {
		mean = 1
	}
	for i := range wts {
		if wts[i] == 0 {
			wts[i] = mean
		}
	}
	return wts, true
}

// runWorker drains shard sh's queue, then — when steal is set — other
// shards' queues, one claimed cell at a time. The per-cell loads are
// written to disjoint Placement.Cells slots, so workers never share a
// counter; per-shard totals are folded after the join (a shared
// ShardLoad row per claim would put every worker's hot stores on the same
// cache lines).
func (e *Engine) runWorker(job Job, out []any, sh *Shard, steal bool) {
	start := time.Now()
	pprof.Do(context.Background(), sh.labels, func(context.Context) {
		for {
			ci := e.queues[sh.index].claim()
			if ci < 0 {
				if !steal {
					break
				}
				ci = e.stealCell(sh.index)
				if ci < 0 {
					break
				}
			}
			e.runCell(job, out, sh, ci)
		}
	})
	e.placement.Shards[sh.index].WallNs = time.Since(start).Nanoseconds()
}

// stealCell claims one cell from the victim with the most unclaimed
// estimated weight, rescanning if it loses the race for a victim's last
// cell. Returns -1 once every queue is drained. No allocation: the scan
// reads cursors and prefix sums already in place.
func (e *Engine) stealCell(self int) int {
	for {
		victim, most := -1, uint64(0)
		for j := range e.queues {
			if j == self {
				continue
			}
			if rem := e.queues[j].remaining(); rem > most {
				victim, most = j, rem
			}
		}
		if victim < 0 {
			return -1
		}
		if ci := e.queues[victim].claim(); ci >= 0 {
			return ci
		}
	}
}

// runCell executes one claimed cell on sh and records its result and load.
func (e *Engine) runCell(job Job, out []any, sh *Shard, ci int) {
	// Fired accumulates across Loop resets, so the cell's events are the
	// growth over its run.
	base := sh.loop.Fired()
	out[ci] = job.Run(sh, ci, job.Cells[ci])
	c := &e.placement.Cells[ci]
	c.Ran = sh.index
	c.Events = sh.loop.Fired() - base
}
