package engine

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// TestEngineRunIndexAlignedAndShardLocal: a fresh engine deals cell i to
// shard i mod 4; a second Run of the same job on the same engine deals by
// the events each cell fired in the first, heaviest first with ties by
// index. Either way every cell runs exactly once, on the shard Placement
// records, its result lands in its own slot, and a shard claims its own
// cells in dealt order (stolen cells may interleave).
func TestEngineRunIndexAlignedAndShardLocal(t *testing.T) {
	const shards = 4
	e := New(shards)
	job := placementJob(40)
	// Each shard appends the cells it ran to its own slice — one goroutine
	// per shard, so no synchronization.
	var perShard [shards][]int
	run := job.Run
	job.Run = func(sh *Shard, cell int, label string) any {
		perShard[sh.Index()] = append(perShard[sh.Index()], cell)
		return run(sh, cell, label)
	}
	check := func(name string, deal []int) []any {
		t.Helper()
		perShard = [shards][]int{}
		out := e.Run(job)
		p := e.Placement()
		rank := make([]int, len(deal))
		for k, cell := range deal {
			rank[cell] = k
			if got := p.Cells[cell].Planned; got != k%shards {
				t.Fatalf("%s: cell %d (dealt %d-th) planned on shard %d, want %d", name, cell, k, got, k%shards)
			}
		}
		runs := make([]int, len(deal))
		for s, ran := range perShard {
			last := -1
			for _, cell := range ran {
				runs[cell]++
				c := p.Cells[cell]
				if c.Ran != s {
					t.Fatalf("%s: cell %d ran on shard %d, placement says %d", name, cell, s, c.Ran)
				}
				if c.Planned == s {
					if rank[cell] <= last {
						t.Fatalf("%s: shard %d ran its own cells out of dealt order: %v", name, s, ran)
					}
					last = rank[cell]
				}
			}
		}
		for cell, n := range runs {
			if n != 1 {
				t.Fatalf("%s: cell %d ran %d times, want once", name, cell, n)
			}
		}
		for i, v := range out {
			if want := placementEvents(job.Cells[i]); v != want {
				t.Fatalf("%s: out[%d] = %v, want %d", name, i, v, want)
			}
		}
		return out
	}

	deal := make([]int, len(job.Cells))
	for i := range deal {
		deal[i] = i
	}
	cold := check("cold", deal)

	// Warm: heaviest first by the cold run's measured events, ties by index.
	sort.SliceStable(deal, func(a, b int) bool {
		return placementEvents(job.Cells[deal[a]]) > placementEvents(job.Cells[deal[b]])
	})
	if slices.IsSorted(deal) {
		t.Fatal("placementJob has equal cell weights: the warm deal cannot differ from index order")
	}
	warm := check("warm", deal)
	for i := range cold {
		if warm[i] != cold[i] {
			t.Fatalf("warm out[%d] = %v, cold %v: the deal changed a result", i, warm[i], cold[i])
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

// placementEvents is the number of loop events placementJob's cell label
// fires: 1 to 7, derived from the label.
func placementEvents(label string) int {
	return int(sim.DeriveSeed(1, label)%7) + 1
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
		events := placementEvents(label)
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
		wantEvents += uint64(placementEvents(label))
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
			if c.Ran < 0 || c.Ran >= shards || c.Planned < 0 || c.Planned >= shards {
				t.Fatalf("cell %d shard indices out of range: planned %d ran %d", i, c.Planned, c.Ran)
			}
			cellEvents += c.Events
		}
		if cellEvents != wantEvents {
			t.Fatalf("shards=%d: per-cell events sum %d, want %d", shards, cellEvents, wantEvents)
		}
		if s := p.String(); s == "" {
			t.Fatal("empty placement report")
		}
	}
}
