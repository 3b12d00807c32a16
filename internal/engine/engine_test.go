package engine

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func TestShardForIsConsistentAndInRange(t *testing.T) {
	hits := make([]int, 8)
	for i := 0; i < 500; i++ {
		label := fmt.Sprintf("cell%03d", i)
		s := ShardFor(label, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("ShardFor(%q, 8) = %d out of range", label, s)
		}
		if again := ShardFor(label, 8); again != s {
			t.Fatalf("ShardFor(%q, 8) unstable: %d then %d", label, s, again)
		}
		hits[s]++
	}
	for s, n := range hits {
		if n == 0 {
			t.Fatalf("shard %d received none of 500 labels: degenerate partition", s)
		}
	}
}

func TestEngineRunIndexAlignedAndShardLocal(t *testing.T) {
	e := New(4)
	cells := make([]string, 40)
	for i := range cells {
		cells[i] = fmt.Sprintf("c%02d", i)
	}
	// Each shard appends the cells it ran to its own slice — one goroutine
	// per shard, so no synchronization. The cold plan is the ShardFor hash
	// in index order, so the cells a shard claims from its own queue must
	// arrive in label-index order (run-to-completion, deterministic order);
	// stolen cells may interleave.
	perShard := make([][]int, 4)
	out := e.Run(Job{Cells: cells, Run: func(sh *Shard, cell int, label string) any {
		perShard[sh.Index()] = append(perShard[sh.Index()], cell)
		return label + "!"
	}})
	for i, v := range out {
		if v != cells[i]+"!" {
			t.Fatalf("out[%d] = %v, want %q", i, v, cells[i]+"!")
		}
	}
	p := e.Placement()
	runs := make([]int, len(cells))
	for s, ran := range perShard {
		last := -1
		for _, cell := range ran {
			runs[cell]++
			c := p.Cells[cell]
			if c.Ran != s {
				t.Fatalf("cell %d ran on shard %d, placement says %d", cell, s, c.Ran)
			}
			if c.Planned != ShardFor(cells[cell], 4) {
				t.Fatalf("cold plan put cell %d on shard %d, want ShardFor %d",
					cell, c.Planned, ShardFor(cells[cell], 4))
			}
			if c.Planned == s {
				if cell <= last {
					t.Fatalf("shard %d ran its own cells out of index order: %v", s, ran)
				}
				last = cell
			}
		}
	}
	for cell, n := range runs {
		if n != 1 {
			t.Fatalf("cell %d ran %d times, want once", cell, n)
		}
	}
}

func TestEngineResultsShardCountInvariant(t *testing.T) {
	cells := make([]string, 24)
	for i := range cells {
		cells[i] = fmt.Sprintf("grid/%d", i)
	}
	run := func(shards int) []any {
		return New(shards).Run(Job{Cells: cells, Run: func(sh *Shard, cell int, label string) any {
			// A deterministic per-cell computation using the shard's loop:
			// schedule a label-seeded burst of events and report the final
			// virtual time and event count.
			loop := sh.Loop()
			rng := sim.NewRand(sim.DeriveSeed(7, label))
			for i := 0; i < 50; i++ {
				loop.Schedule(rng.Duration(sim.Second), func(sim.Time) {})
			}
			loop.Run()
			return fmt.Sprintf("%s:%v", label, loop.Now())
		}})
	}
	want := run(1)
	for _, shards := range []int{2, 8} {
		got := run(shards)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: out[%d] = %v, want %v", shards, i, got[i], want[i])
			}
		}
	}
}

func TestShardPayloadStableAndZero(t *testing.T) {
	sh := NewShard()
	p1 := sh.Payload(1 << 10)
	if len(p1) != 1<<10 {
		t.Fatalf("Payload(1K) len = %d", len(p1))
	}
	p2 := sh.Payload(512)
	if &p1[0] != &p2[0] {
		t.Fatal("smaller Payload reallocated instead of reslicing")
	}
	p3 := sh.Payload(1 << 20)
	for i, b := range p3 {
		if b != 0 {
			t.Fatalf("payload[%d] = %d, want 0", i, b)
		}
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if n := New(0).NumShards(); n < 1 {
		t.Fatalf("New(0) made %d shards", n)
	}
	if n := New(3).NumShards(); n != 3 {
		t.Fatalf("New(3) made %d shards", n)
	}
}

// placementJob runs a tiny deterministic workload: each cell schedules a
// label-derived number of loop events on its shard's loop.
func placementJob(n int) Job {
	cells := make([]string, n)
	for i := range cells {
		cells[i] = fmt.Sprintf("p%02d", i)
	}
	return Job{Cells: cells, Run: func(sh *Shard, cell int, label string) any {
		loop := sh.Loop()
		events := int(sim.DeriveSeed(1, label)%7) + 1
		for i := 0; i < events; i++ {
			loop.Schedule(sim.Time(i)*sim.Millisecond, func(sim.Time) {})
		}
		loop.Run()
		return events
	}}
}

// TestEnginePlacementAccounting: the placement report's cell counts cover
// every cell exactly once, total events equal the per-cell truth at any
// shard count, and the skew is a well-formed max/mean.
func TestEnginePlacementAccounting(t *testing.T) {
	job := placementJob(24)
	var wantEvents uint64
	for _, label := range job.Cells {
		wantEvents += sim.DeriveSeed(1, label)%7 + 1
	}
	for _, shards := range []int{1, 4} {
		e := New(shards)
		out := e.Run(job)
		p := e.Placement()
		if len(p.Shards) != shards {
			t.Fatalf("placement has %d shards, want %d", len(p.Shards), shards)
		}
		cells := 0
		for _, s := range p.Shards {
			cells += s.Cells
		}
		if cells != len(out) {
			t.Fatalf("placement counts %d cells, want %d", cells, len(out))
		}
		if got := p.TotalEvents(); got != wantEvents {
			t.Fatalf("shards=%d: total events %d, want %d", shards, got, wantEvents)
		}
		if skew := p.EventSkew(); skew < 1.0 {
			t.Fatalf("shards=%d: event skew %v < 1 (max below mean is impossible)", shards, skew)
		}
		if len(p.Cells) != len(out) {
			t.Fatalf("placement records %d cells, want %d", len(p.Cells), len(out))
		}
		var cellEvents uint64
		for i, c := range p.Cells {
			if c.Label != job.Cells[i] {
				t.Fatalf("cell %d labelled %q, want %q", i, c.Label, job.Cells[i])
			}
			if c.Ran < 0 || c.Ran >= shards || c.Planned < 0 || c.Planned >= shards {
				t.Fatalf("cell %d shard indices out of range: planned %d ran %d", i, c.Planned, c.Ran)
			}
			cellEvents += c.Events
		}
		if cellEvents != wantEvents {
			t.Fatalf("shards=%d: per-cell events sum %d, want %d", shards, cellEvents, wantEvents)
		}
		if prof := p.Profile(); len(prof) != len(out) {
			t.Fatalf("profile has %d labels, want %d", len(prof), len(out))
		}
		if s := p.String(); s == "" {
			t.Fatal("empty placement report")
		}
	}
}
