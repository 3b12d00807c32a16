// mm-bench regenerates every table and figure from the paper's evaluation:
//
//	mm-bench -exp all                  # everything (several minutes)
//	mm-bench -exp fig2 -sites 50       # one artifact, subsampled corpus
//	mm-bench -exp all -shards 8        # fan cells across 8 engine shards
//	mm-bench -exp sweep -delays 30,120,300 -rates 1,14,25 -trials 3
//	mm-bench -exp contention -flows 1000 -shards 8 -mix 6:1:3
//	mm-bench -exp dynamics -shards 4   # scripted link faults x AQM grid
//	mm-bench -exp scaling -shards 4    # 1-vs-N engine speedup + skew smoke
//	mm-bench -exp linkchar             # link character x impairment grid
//
// Experiments: fig2, table1, table2, fig3, servers, isolation,
// bufferbloat, linkchar, sweep, contention, dynamics, scaling.
// Results print in the paper's layout with the paper's numbers alongside;
// EXPERIMENTS.md records a reference run.
//
// Every experiment grid runs on the sharded engine (internal/engine):
// -shards N fans its cells across N shards, and per-cell seeds are derived
// from cell labels, so output is byte-identical at every N.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig2|table1|table2|fig3|servers|isolation|bufferbloat|linkchar|contention|dynamics|scaling|sweep|all")
	sites := flag.Int("sites", 0, "override corpus size (0 = experiment default)")
	loads := flag.Int("loads", 0, "override load count (0 = experiment default)")
	seed := flag.Uint64("seed", 0, "override root seed (0 = experiment default)")
	delays := flag.String("delays", "", "sweep: comma-separated one-way delays in ms (default 30,120)")
	rates := flag.String("rates", "", "sweep: comma-separated link rates in Mbit/s (default 14)")
	losses := flag.String("losses", "", "sweep: comma-separated loss probabilities (default 0,0.01)")
	trials := flag.Int("trials", 0, "sweep: jittered loads per (site, stack) cell (0 = default)")
	bulkMB := flag.Int("bulk-mb", 0, "bufferbloat/linkchar: bulk flow size in MB (0 = experiment default)")
	flows := flag.Int("flows", 0, "contention: flows per cell (0 = default 96)")
	shards := flag.Int("shards", 1, "engine shards for every experiment grid (0 = GOMAXPROCS; scaling's parallel arm defaults to 4); output is identical at any value")
	mix := flag.String("mix", "", "contention: web:bulk:rpc flow ratio (default 6:1:3)")
	reps := flag.Int("reps", 0, "scaling: repetitions per arm, oracle-primed after the first (0 = default 3)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken after the run to this file")
	schedstats := flag.String("schedstats", "", "write event-queue depth/occupancy counters aggregated over the run to this file")
	flag.Parse()

	if *schedstats != "" {
		sim.EnableSchedStats(true)
		defer writeSchedStats(*schedstats)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("mm-bench: -cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("mm-bench: -cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Report heap-profile errors without exiting: os.Exit here would
		// skip the deferred StopCPUProfile and corrupt a -cpuprofile
		// captured in the same run.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mm-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mm-bench: -memprofile: %v\n", err)
			}
		}()
	}

	run := func(name string, fn func()) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		fn()
		fmt.Printf("[%s finished in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("servers", func() {
		n := 500
		if *sites > 0 {
			n = *sites
		}
		fmt.Println(experiments.ServersPerSite(rootSeed(*seed, 1), n))
	})
	run("fig2", func() {
		cfg := experiments.DefaultFig2()
		cfg.Shards = *shards
		cfg.Seed = rootSeed(*seed, cfg.Seed)
		if *sites > 0 {
			cfg.Sites = *sites
		}
		fmt.Println(experiments.Fig2(cfg))
	})
	run("table1", func() {
		cfg := experiments.DefaultTable1()
		cfg.Shards = *shards
		if *seed != 0 {
			// Derive both simulated machines' host-noise seeds from the
			// override so -seed re-draws Table 1 like every other artifact.
			cfg.MachineSeeds = [2]uint64{
				sim.DeriveSeed(*seed, "machine1"),
				sim.DeriveSeed(*seed, "machine2"),
			}
		}
		if *loads > 0 {
			cfg.Loads = *loads
		}
		fmt.Println(experiments.Table1(cfg))
	})
	run("table2", func() {
		cfg := experiments.DefaultTable2()
		cfg.Shards = *shards
		cfg.Seed = rootSeed(*seed, cfg.Seed)
		if *sites > 0 {
			cfg.Sites = *sites
		}
		fmt.Println(experiments.Table2(cfg))
	})
	run("fig3", func() {
		cfg := experiments.DefaultFig3()
		cfg.Shards = *shards
		cfg.Seed = rootSeed(*seed, cfg.Seed)
		if *loads > 0 {
			cfg.Loads = *loads
		}
		fmt.Println(experiments.Fig3(cfg))
	})
	run("isolation", func() {
		fmt.Println(experiments.Isolation(rootSeed(*seed, 5), *shards))
	})
	run("bufferbloat", func() {
		cfg := experiments.DefaultBufferbloat()
		cfg.Shards = *shards
		cfg.Seed = rootSeed(*seed, cfg.Seed)
		if *bulkMB > 0 {
			cfg.BulkBytes = *bulkMB << 20
		}
		fmt.Println(experiments.Bufferbloat(cfg))
	})
	run("linkchar", func() {
		cfg := experiments.DefaultLinkchar()
		cfg.Shards = *shards
		cfg.Seed = rootSeed(*seed, cfg.Seed)
		if *bulkMB > 0 {
			cfg.BulkBytes = *bulkMB << 20
		}
		fmt.Println(experiments.Linkchar(cfg))
	})
	run("contention", func() {
		cfg := experiments.DefaultContention()
		cfg.Seed = rootSeed(*seed, cfg.Seed)
		if *flows > 0 {
			cfg.Flows = *flows
		}
		cfg.Shards = *shards
		if *mix != "" {
			m, err := engine.ParseMix(*mix)
			if err != nil {
				fatalf("mm-bench: -mix: %v", err)
			}
			cfg.Mix = m
		}
		res := experiments.Contention(cfg)
		fmt.Println(res)
		// The placement report depends on the shard count, so it prints
		// after (never inside) the deterministic artifact.
		fmt.Println(res.Placement)
	})
	run("dynamics", func() {
		cfg := experiments.DefaultDynamics()
		cfg.Seed = rootSeed(*seed, cfg.Seed)
		cfg.Shards = *shards
		res := experiments.Dynamics(cfg)
		fmt.Println(res)
		fmt.Println(res.Placement)
	})
	run("scaling", func() {
		cfg := experiments.DefaultScaling()
		cfg.Contention.Seed = rootSeed(*seed, cfg.Contention.Seed)
		if *flows > 0 {
			cfg.Contention.Flows = *flows
		}
		if *mix != "" {
			m, err := engine.ParseMix(*mix)
			if err != nil {
				fatalf("mm-bench: -mix: %v", err)
			}
			cfg.Contention.Mix = m
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				cfg.Shards = *shards
			}
		})
		if *reps > 0 {
			cfg.Reps = *reps
		}
		res := experiments.Scaling(cfg)
		fmt.Println(res)
		if !res.ArtifactsMatch {
			fatalf("mm-bench: scaling artifacts diverged across arms/repetitions")
		}
	})
	run("sweep", func() {
		cfg := experiments.DefaultSweep()
		cfg.Shards = *shards
		cfg.Seed = rootSeed(*seed, cfg.Seed)
		if *sites > 0 {
			cfg.Sites = *sites
		}
		if *trials > 0 {
			cfg.Trials = *trials
		}
		if *delays != "" {
			cfg.Delays = nil
			for _, ms := range splitInts(*delays, "-delays") {
				cfg.Delays = append(cfg.Delays, sim.Time(ms)*sim.Millisecond)
			}
		}
		if *rates != "" {
			cfg.Rates = nil
			for _, mbps := range splitInts(*rates, "-rates") {
				cfg.Rates = append(cfg.Rates, mbps*1_000_000)
			}
		}
		if *losses != "" {
			cfg.LossProbs = nil
			for _, f := range strings.Split(*losses, ",") {
				p, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil {
					fatalf("mm-bench: bad -losses entry %q: %v", f, err)
				}
				cfg.LossProbs = append(cfg.LossProbs, p)
			}
		}
		fmt.Println(experiments.Sweep(cfg))
	})

	valid := map[string]bool{"all": true, "fig2": true, "table1": true,
		"table2": true, "fig3": true, "servers": true, "isolation": true,
		"sweep": true, "bufferbloat": true, "linkchar": true, "contention": true, "dynamics": true,
		"scaling": true}
	if !valid[*exp] {
		fmt.Fprintf(os.Stderr, "mm-bench: unknown experiment %q (want %s)\n",
			*exp, strings.Join([]string{"fig2", "table1", "table2", "fig3", "servers", "isolation", "bufferbloat", "linkchar", "contention", "dynamics", "scaling", "sweep", "all"}, "|"))
		os.Exit(2)
	}
}

// rootSeed applies the -seed override: zero keeps the experiment default.
func rootSeed(override, def uint64) uint64 {
	if override != 0 {
		return override
	}
	return def
}

// splitInts parses a comma-separated integer list or exits with a usage
// error naming the offending flag.
func splitInts(s, flagName string) []int64 {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fatalf("mm-bench: bad %s entry %q: %v", flagName, f, err)
		}
		out = append(out, v)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// writeSchedStats renders the aggregated event-queue counters collected
// across every simulation loop in the run (-schedstats).
func writeSchedStats(path string) {
	c, loops := sim.SchedStatsSnapshot()
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mm-bench: -schedstats: %v\n", err)
		return
	}
	defer f.Close()
	future := c.Scheduled - c.NowFast
	pct := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return 100 * float64(n) / float64(d)
	}
	fmt.Fprintf(f, "loops (drains):        %d\n", loops)
	fmt.Fprintf(f, "events scheduled:      %d\n", c.Scheduled)
	fmt.Fprintf(f, "events fired:          %d\n", c.Fired)
	fmt.Fprintf(f, "now-queue fast path:   %d (%.1f%% of scheduled)\n", c.NowFast, pct(c.NowFast, c.Scheduled))
	fmt.Fprintf(f, "future events:         %d\n", future)
	fmt.Fprintf(f, "max queue depth:       %d\n", c.MaxPending)
}
