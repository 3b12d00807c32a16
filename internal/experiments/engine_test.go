package experiments

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
)

// TestRunCellsIndexAlignment checks results land in the slot of the cell
// that produced them, not in completion order.
func TestRunCellsIndexAlignment(t *testing.T) {
	var cells []Cell
	for i := 0; i < 64; i++ {
		cells = append(cells, Cell{Site: siteLabel(i), Shell: "s", Trial: i})
	}
	run := func(_ *engine.Shard, i int, c Cell, _ uint64) []float64 {
		return []float64{float64(i), float64(c.Trial)}
	}
	for _, shards := range []int{1, 3, 8, 100} {
		results := runCells(shards, 1, cells, run)
		if len(results) != len(cells) {
			t.Fatalf("shards=%d: %d results for %d cells", shards, len(results), len(cells))
		}
		for i, vals := range results {
			if vals[0] != float64(i) || vals[1] != float64(i) {
				t.Fatalf("shards=%d: slot %d holds cell %v/%v", shards, i, vals[0], vals[1])
			}
		}
	}
}

// TestRunCellsSeedsMatchCells checks the engine hands each run call exactly
// cells[i].Seed(root), at every shard count.
func TestRunCellsSeedsMatchCells(t *testing.T) {
	var cells []Cell
	for i := 0; i < 32; i++ {
		cells = append(cells, Cell{Site: "site", Shell: "shell", Trial: i})
	}
	run := func(_ *engine.Shard, i int, c Cell, seed uint64) []float64 {
		if want := c.Seed(99); seed != want {
			t.Errorf("cell %d: engine seed %#x, want %#x", i, seed, want)
		}
		return nil
	}
	for _, shards := range []int{1, 4} {
		runCells(shards, 99, cells, run)
	}
}

// TestRunCellsFansOut checks that with more than one shard more than one
// worker goroutine runs cells at once: the first cells block until two are
// in flight, which only a second worker (running its own cells or stealing
// the rest) can bring about.
func TestRunCellsFansOut(t *testing.T) {
	var inflight, peak atomic.Int64
	var release sync.Once
	block := make(chan struct{})
	var cells []Cell
	for i := 0; i < 4; i++ {
		cells = append(cells, Cell{Site: siteLabel(i)})
	}
	runCells(4, 0, cells, func(*engine.Shard, int, Cell, uint64) []float64 {
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
	})
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

// shardLevels are the engine shard counts every artifact must agree across.
var shardLevels = []int{1, 2, 8}

// parallelArtifacts renders a subsampled version of every experiment
// artifact at a given engine shard count. A non-empty golden names the
// testdata file the single-shard render must equal byte for byte.
var parallelArtifacts = []struct {
	name   string
	golden string
	render func(shards int) string
}{
	{"fig2", "fig2.golden", func(shards int) string {
		cfg := Fig2Config{
			Sites: 12, Seed: 1,
			DelayForwarding: 30 * sim.Microsecond,
			LinkForwarding:  250 * sim.Microsecond,
			Shards:          shards,
		}
		return Fig2(cfg).String()
	}},
	// Table 1 draws per-load host-noise jitter, the hard case.
	{"table1", "table1.golden", func(shards int) string {
		cfg := DefaultTable1()
		cfg.Loads = 6
		cfg.Shards = shards
		return Table1(cfg).String()
	}},
	{"table2", "table2.golden", func(shards int) string {
		cfg := Table2Config{
			Sites: 8, Seed: 2,
			Delays: []sim.Time{30 * sim.Millisecond},
			Rates:  []int64{1_000_000, 25_000_000},
			Shards: shards,
		}
		return Table2(cfg).String()
	}},
	// Figure 3 shares per-trial RTT draws and adds jitter.
	{"fig3", "fig3.golden", func(shards int) string {
		cfg := Fig3Config{
			Loads: 6, Seed: 3,
			MinRTTBase: 20 * sim.Millisecond, MinRTTSpread: 20 * sim.Millisecond,
			Shards: shards,
		}
		return Fig3(cfg).String()
	}},
	{"isolation", "isolation.golden", func(shards int) string {
		return Isolation(5, shards).String()
	}},
	// The sweep derives its jitter and loss streams per cell.
	{"sweep", "sweep.golden", func(shards int) string {
		cfg := DefaultSweep()
		cfg.Sites = 6
		cfg.Shards = shards
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
	{"bufferbloat", "bufferbloat.golden", func(shards int) string {
		cfg := DefaultBufferbloat()
		cfg.BulkBytes = 2 << 20
		cfg.HeadStart = 500 * sim.Millisecond
		cfg.Shards = shards
		return Bufferbloat(cfg).String()
	}},
	// The contention cells run the many-flow engine workload — hundreds of
	// pooled tcpsim conns, Pareto web sizes, per-class Poisson arrivals,
	// per-flow sojourn attribution — under the same contract.
	{"contention", "", func(shards int) string {
		cfg := DefaultContention()
		cfg.Flows = 24
		cfg.BulkBytes = 64 << 10
		cfg.Shards = shards
		return Contention(cfg).String()
	}},
	// The dynamics cells run the chaos scheduler: scripted mid-load link
	// faults (outage, handover, rate step, loss burst, AQM hot-swap) whose
	// transition transcripts and per-phase queue epochs are part of the
	// artifact. Byte-identity here pins every transition instant, every
	// drain accounting number, and the recovery behaviour of the endpoint
	// stacks (RTO backoff ladders, browser response deadlines) across
	// shard counts.
	{"dynamics", "", func(shards int) string {
		cfg := DefaultDynamics()
		cfg.Shards = shards
		return Dynamics(cfg).String()
	}},
	// The linkchar cells put the impairment vocabulary — reorder holds on
	// the virtual clock, pooled duplication clones, corruption flags, the
	// 4-state Markov chain, and a scripted mid-run reorder episode — under
	// the byte-identity contract, over the synthesized link-character
	// corpus. Every impairment box's one-draw-per-packet stream and the
	// tcpsim goodput accounting (DupBytesRcvd, ChecksumDrops) are pinned
	// here across shard counts.
	{"linkchar", "", func(shards int) string {
		cfg := DefaultLinkchar()
		cfg.Shards = shards
		return Linkchar(cfg).String()
	}},
}

// TestParallelDeterminism: every experiment artifact must be byte-identical
// at 1, 2 and 8 engine shards (run with -race in CI), and the single-shard
// render must equal its golden where one is pinned. This is what licenses
// -shards as a pure performance knob, and packet trains as a pure
// event-count optimization: neither may move a number.
func TestParallelDeterminism(t *testing.T) {
	for _, a := range parallelArtifacts {
		t.Run(a.name, func(t *testing.T) {
			got := assertIdenticalAcrossShards(t, a.render)
			if a.golden == "" {
				return
			}
			if want := readGolden(t, a.golden); got != want {
				t.Errorf("artifact drifted from testdata/%s\n got: %q\nwant: %q",
					a.golden, clip(got), clip(want))
			}
		})
	}
}

// assertIdenticalAcrossShards renders an artifact at each shard count,
// requires byte equality with the single-shard rendering, and returns that
// rendering.
func assertIdenticalAcrossShards(t *testing.T, render func(shards int) string) string {
	t.Helper()
	want := render(shardLevels[0])
	if want == "" {
		t.Fatal("empty artifact")
	}
	for _, n := range shardLevels[1:] {
		if got := render(n); got != want {
			t.Errorf("artifact differs at shards=%d:\n--- shards=%d ---\n%s\n--- shards=%d ---\n%s",
				n, shardLevels[0], want, n, got)
		}
	}
	return want
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
