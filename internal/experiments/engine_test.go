package experiments

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// TestRunnerIndexAlignment checks results land in the slot of the cell
// that produced them, not in completion order.
func TestRunnerIndexAlignment(t *testing.T) {
	m := &Matrix{Name: "align", RootSeed: 1}
	for i := 0; i < 64; i++ {
		m.Cells = append(m.Cells, Cell{Site: siteLabel(i), Shell: "s", Trial: i})
	}
	m.Run = func(i int, c Cell, seed uint64) []float64 {
		return []float64{float64(i), float64(c.Trial)}
	}
	for _, parallel := range []int{1, 3, 8, 100} {
		results := NewRunner(parallel).Run(m)
		if len(results) != len(m.Cells) {
			t.Fatalf("parallel=%d: %d results for %d cells", parallel, len(results), len(m.Cells))
		}
		for i, vals := range results {
			if vals[0] != float64(i) || vals[1] != float64(i) {
				t.Fatalf("parallel=%d: slot %d holds cell %v/%v", parallel, i, vals[0], vals[1])
			}
		}
	}
}

// TestRunnerSeedsMatchCells checks the engine hands each Run call exactly
// Cells[i].Seed(RootSeed), at every parallelism.
func TestRunnerSeedsMatchCells(t *testing.T) {
	m := &Matrix{Name: "seeds", RootSeed: 99}
	for i := 0; i < 32; i++ {
		m.Cells = append(m.Cells, Cell{Site: "site", Shell: "shell", Trial: i})
	}
	m.Run = func(i int, c Cell, seed uint64) []float64 {
		if want := c.Seed(99); seed != want {
			t.Errorf("cell %d: engine seed %#x, want %#x", i, seed, want)
		}
		return nil
	}
	for _, parallel := range []int{1, 4} {
		NewRunner(parallel).Run(m)
	}
}

// TestRunnerActuallyFansOut checks that with Parallel > 1 more than one
// worker goroutine participates (the workers draw from a shared channel,
// so under the race of a fast first worker this could in principle flake;
// the barrier cell forces overlap).
func TestRunnerActuallyFansOut(t *testing.T) {
	var inflight, peak atomic.Int64
	var release sync.Once
	block := make(chan struct{})
	m := &Matrix{Name: "fanout"}
	for i := 0; i < 4; i++ {
		m.Cells = append(m.Cells, Cell{Site: siteLabel(i)})
	}
	m.Run = func(i int, c Cell, seed uint64) []float64 {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		if n == 2 {
			// Two cells are in flight simultaneously: release everyone.
			release.Do(func() { close(block) })
		}
		<-block
		inflight.Add(-1)
		return nil
	}
	NewRunner(4).Run(m)
	if peak.Load() < 2 {
		t.Fatalf("peak concurrent cells = %d, want >= 2", peak.Load())
	}
}

// TestCellSeedStable pins the cell→seed mapping (a regression guard on
// top of sim.DeriveSeed's own golden test: the engine must keep deriving
// through Site, Shell, Trial in that order).
func TestCellSeedStable(t *testing.T) {
	c := Cell{Site: "site042", Shell: "delay30ms", Trial: 0}
	if got, want := c.Seed(1), sim.DeriveSeed(1, "site042", "delay30ms", "0"); got != want {
		t.Fatalf("Cell.Seed = %#x, want %#x", got, want)
	}
	if c.Seed(1) != c.Seed(1) {
		t.Fatal("Cell.Seed not stable")
	}
	if c.Seed(1) == c.Seed(2) {
		t.Fatal("root seed ignored")
	}
	if (Cell{Site: "site042", Shell: "delay30ms", Trial: 1}).Seed(1) == c.Seed(1) {
		t.Fatal("trial ignored")
	}
}

// parallelLevels are the engine widths every artifact must agree across.
var parallelLevels = []int{1, 2, 8}

// parallelArtifacts renders a subsampled version of every experiment
// artifact at a given engine parallelism.
var parallelArtifacts = []struct {
	name   string
	render func(parallel int) string
}{
	{"fig2", func(parallel int) string {
		cfg := Fig2Config{
			Sites: 12, Seed: 1,
			DelayForwarding: 30 * sim.Microsecond,
			LinkForwarding:  250 * sim.Microsecond,
			Parallel:        parallel,
		}
		return Fig2(cfg).String()
	}},
	// Table 1 draws per-load host-noise jitter, the hard case.
	{"table1", func(parallel int) string {
		cfg := DefaultTable1()
		cfg.Loads = 6
		cfg.Parallel = parallel
		return Table1(cfg).String()
	}},
	{"table2", func(parallel int) string {
		cfg := Table2Config{
			Sites: 8, Seed: 2,
			Delays:   []sim.Time{30 * sim.Millisecond},
			Rates:    []int64{1_000_000, 25_000_000},
			Parallel: parallel,
		}
		return Table2(cfg).String()
	}},
	// Figure 3 shares per-trial RTT draws and adds jitter.
	{"fig3", func(parallel int) string {
		cfg := Fig3Config{
			Loads: 6, Seed: 3,
			MinRTTBase: 20 * sim.Millisecond, MinRTTSpread: 20 * sim.Millisecond,
			Parallel: parallel,
		}
		return Fig3(cfg).String()
	}},
	{"isolation", func(parallel int) string {
		return Isolation(5, parallel).String()
	}},
	// The sweep derives its jitter and loss streams per cell.
	{"sweep", func(parallel int) string {
		cfg := DefaultSweep()
		cfg.Sites = 6
		cfg.Parallel = parallel
		return Sweep(cfg).String()
	}},
	// The codel cells put the RFC 8289 control law — drop spacing, count
	// decay, sojourn arithmetic — under the same byte-identity contract as
	// every droptail artifact; the codel-ecn, pie and pie-ecn cells extend
	// the contract over the marking state machine, PIE's probability
	// controller with its deterministic draw stream, the ECN negotiation
	// and echo in tcpsim, and the per-flow fairness attribution. The
	// fq_codel and fq_codel-ecn cells (part of the default grid) add the
	// RFC 8290 machinery: flow hashing, DRR rotation with new/old lists,
	// per-bucket CoDel state, and the fattest-bucket overflow law — plus
	// the per-flow sojourn histograms behind the fairness table's
	// median-of-flow-p95 column, which is exactly the statistic that
	// caught a map-iteration nondeterminism aggregate counters missed.
	{"bufferbloat", func(parallel int) string {
		cfg := DefaultBufferbloat()
		cfg.BulkBytes = 2 << 20
		cfg.HeadStart = 500 * sim.Millisecond
		cfg.Parallel = parallel
		return Bufferbloat(cfg).String()
	}},
	// The contention cells run the many-flow engine workload — hundreds of
	// pooled tcpsim conns, Pareto web sizes, per-class Poisson arrivals,
	// per-flow sojourn attribution — under the same contract. Parallelism
	// here is engine shards (run-to-completion cells on private loops and
	// pools), not matrix workers, so this also checks the sharded engine
	// itself.
	{"contention", func(parallel int) string {
		cfg := DefaultContention()
		cfg.Flows = 24
		cfg.BulkBytes = 64 << 10
		cfg.Shards = parallel
		return Contention(cfg).String()
	}},
	// The affinity variant pins cells to their ShardFor shard with stealing
	// disabled. Each variant is internally byte-identical across shard
	// counts here; the golden tests additionally pin both variants to the
	// same pre-stealing bytes, closing the cross-mode loop.
	{"contention-affinity", func(parallel int) string {
		cfg := DefaultContention()
		cfg.Flows = 24
		cfg.BulkBytes = 64 << 10
		cfg.Shards = parallel
		cfg.Affinity = true
		return Contention(cfg).String()
	}},
	// The dynamics cells run the chaos scheduler: scripted mid-load link
	// faults (outage, handover, rate step, loss burst, AQM hot-swap) whose
	// transition transcripts and per-phase queue epochs are part of the
	// artifact. Byte-identity here pins every transition instant, every
	// drain accounting number, and the recovery behaviour of the endpoint
	// stacks (RTO backoff ladders, browser response deadlines) across
	// shard counts.
	{"dynamics", func(parallel int) string {
		cfg := DefaultDynamics()
		cfg.Shards = parallel
		return Dynamics(cfg).String()
	}},
	{"dynamics-affinity", func(parallel int) string {
		cfg := DefaultDynamics()
		cfg.Shards = parallel
		cfg.Affinity = true
		return Dynamics(cfg).String()
	}},
	// The linkchar cells put the impairment vocabulary — reorder holds on
	// the virtual clock, pooled duplication clones, corruption flags, the
	// 4-state Markov chain, and a scripted mid-run reorder episode — under
	// the byte-identity contract, over the synthesized link-character
	// corpus. Every impairment box's one-draw-per-packet stream and the
	// tcpsim goodput accounting (DupBytesRcvd, ChecksumDrops) are pinned
	// here across parallelism.
	{"linkchar", func(parallel int) string {
		cfg := DefaultLinkchar()
		cfg.Parallel = parallel
		return Linkchar(cfg).String()
	}},
}

// TestParallelDeterminism: every experiment artifact must be byte-identical
// at engine parallelism 1, 2 and 8 (run with -race in CI). This is what
// licenses -parallel and -shards as pure performance knobs, and packet
// trains as a pure event-count optimization: none may move a number.
func TestParallelDeterminism(t *testing.T) {
	for _, a := range parallelArtifacts {
		t.Run(a.name, func(t *testing.T) {
			assertIdenticalAcrossParallelism(t, a.render)
		})
	}
}

// assertIdenticalAcrossParallelism renders an artifact at each engine
// width and requires byte equality with the sequential rendering.
func assertIdenticalAcrossParallelism(t *testing.T, render func(parallel int) string) {
	t.Helper()
	want := render(parallelLevels[0])
	if want == "" {
		t.Fatal("empty artifact")
	}
	for _, p := range parallelLevels[1:] {
		if got := render(p); got != want {
			t.Errorf("artifact differs at parallel=%d:\n--- parallel=%d ---\n%s\n--- parallel=%d ---\n%s",
				p, parallelLevels[0], want, p, got)
		}
	}
}

// TestSweepShape sanity-checks the sweep driver itself: the grid size and
// the monotone effect of added delay.
func TestSweepShape(t *testing.T) {
	cfg := DefaultSweep()
	cfg.Sites = 6
	r := Sweep(cfg)
	wantRows := len(cfg.Delays) * len(cfg.Rates) * len(cfg.LossProbs)
	if len(r.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(r.Rows), wantRows)
	}
	if r.Cells != wantRows*cfg.Sites*cfg.Trials {
		t.Fatalf("cells = %d, want %d", r.Cells, wantRows*cfg.Sites*cfg.Trials)
	}
	// Same rate and loss, more delay -> slower loads.
	lo := r.Rows[0] // delay 30ms, loss 0
	var hi *SweepRow
	for i := range r.Rows {
		if r.Rows[i].Stack.Delay == 120*sim.Millisecond && r.Rows[i].Stack.Loss == 0 {
			hi = &r.Rows[i]
		}
	}
	if hi == nil {
		t.Fatal("120ms row missing")
	}
	if hi.PLT.Median() <= lo.PLT.Median() {
		t.Errorf("median PLT at 120ms (%v) <= 30ms (%v)", hi.PLT.Median(), lo.PLT.Median())
	}
	if !strings.Contains(r.String(), "Scenario sweep") {
		t.Fatal("String() malformed")
	}
}
