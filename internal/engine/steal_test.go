package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
)

// stealLabels returns n labels that all hash to shard 0 of a shards-wide
// engine, so every cell is planned onto shard 0 and any other shard can
// only run cells by stealing them.
func stealLabels(t *testing.T, n, shards int) []string {
	t.Helper()
	labels := make([]string, 0, n)
	for i := 0; len(labels) < n; i++ {
		l := fmt.Sprintf("steal%04d", i)
		if ShardFor(l, shards) == 0 {
			labels = append(labels, l)
		}
		if i > 100000 {
			t.Fatal("could not find labels hashing to shard 0")
		}
	}
	return labels
}

// TestEngineStealAccounting forces stealing deterministically: all cells
// hash to shard 0, and the first claimed cell blocks until every other
// cell has finished, so whichever worker holds it, the other worker must
// run the rest by stealing. Events must be attributed to the executing
// shard, cells must sum to the job, and the stolen counts must agree with
// the per-cell planned/ran record.
func TestEngineStealAccounting(t *testing.T) {
	const cells = 6
	labels := stealLabels(t, cells, 2)
	var rest sync.WaitGroup
	rest.Add(cells - 1)
	var first sync.Mutex
	firstCell := -1
	job := Job{Cells: labels, Run: func(sh *Shard, cell int, label string) any {
		first.Lock()
		blocker := firstCell == -1
		if blocker {
			firstCell = cell
		}
		first.Unlock()
		if blocker {
			rest.Wait()
		} else {
			defer rest.Done()
		}
		loop := sh.Loop()
		events := int(sim.DeriveSeed(1, label)%5) + 1
		for i := 0; i < events; i++ {
			loop.Schedule(sim.Time(i)*sim.Millisecond, func(sim.Time) {})
		}
		loop.Run()
		return events
	}}
	var wantEvents uint64
	for _, l := range labels {
		wantEvents += sim.DeriveSeed(1, l)%5 + 1
	}
	e := New(2)
	out := e.Run(job)
	p := e.Placement()

	ranCells := 0
	for _, s := range p.Shards {
		ranCells += s.Cells
	}
	if ranCells != cells {
		t.Fatalf("shards ran %d cells, want %d", ranCells, cells)
	}
	if got := p.TotalEvents(); got != wantEvents {
		t.Fatalf("total events %d, want %d", got, wantEvents)
	}
	if p.Steals() < 1 {
		t.Fatalf("blocked-first-cell job recorded %d steals, want >= 1", p.Steals())
	}
	stolen := 0
	var perShard [2]uint64
	for i, c := range p.Cells {
		if c.Planned != 0 {
			t.Fatalf("cell %d planned on shard %d, want 0 (labels hash to 0)", i, c.Planned)
		}
		if c.Ran != 0 && c.Ran != 1 {
			t.Fatalf("cell %d ran on shard %d", i, c.Ran)
		}
		if c.Ran != c.Planned {
			stolen++
		}
		if want := uint64(out[i].(int)); c.Events != want {
			t.Fatalf("cell %d events %d, want %d", i, c.Events, want)
		}
		perShard[c.Ran] += c.Events
	}
	if stolen != p.Steals() {
		t.Fatalf("per-cell stolen count %d != Steals() %d", stolen, p.Steals())
	}
	for s := range perShard {
		if perShard[s] != p.Shards[s].Events {
			t.Fatalf("shard %d events %d, per-cell sum %d: events not attributed to executing shard",
				s, p.Shards[s].Events, perShard[s])
		}
	}
	if skew := p.EventSkew(); skew < 1.0 {
		t.Fatalf("post-steal skew %v < 1", skew)
	}
	if skew := p.PlannedEventSkew(); skew < 1.0 {
		t.Fatalf("planned skew %v < 1", skew)
	}
	// All cells were planned on shard 0, so the plan's skew must be the
	// worst case (max/mean = number of shards) while stealing improves it.
	if skew := p.PlannedEventSkew(); skew != 2.0 {
		t.Fatalf("planned skew %v, want 2.0 (everything planned on one of two shards)", skew)
	}
	if u := p.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %v outside (0, 1]", u)
	}
}

// TestPlacementMetricsStealEverythingOrNothing pins the telemetry math at
// the two extremes: a shard that stole every cell it ran, and a shard that
// ran nothing at all.
func TestPlacementMetricsStealEverythingOrNothing(t *testing.T) {
	// Shard 1 stole everything; shard 0 (the planned owner) ran nothing.
	p := Placement{
		Shards: []ShardLoad{
			{Cells: 0, Events: 0, Stolen: 0, WallNs: 10},
			{Cells: 3, Events: 90, Stolen: 3, WallNs: 100},
		},
		Cells: []CellLoad{
			{Label: "a", Planned: 0, Ran: 1, Events: 30},
			{Label: "b", Planned: 0, Ran: 1, Events: 30},
			{Label: "c", Planned: 0, Ran: 1, Events: 30},
		},
	}
	if got := p.EventSkew(); got != 2.0 {
		t.Fatalf("steal-everything post skew %v, want 2.0", got)
	}
	if got := p.PlannedEventSkew(); got != 2.0 {
		t.Fatalf("steal-everything planned skew %v, want 2.0", got)
	}
	if got := p.Steals(); got != 3 {
		t.Fatalf("Steals() = %d, want 3", got)
	}
	if u := p.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %v outside (0, 1]", u)
	}
	if p.String() == "" {
		t.Fatal("empty placement report")
	}

	// Nothing stolen: a perfectly level run.
	level := Placement{
		Shards: []ShardLoad{
			{Cells: 1, Events: 50, WallNs: 100},
			{Cells: 1, Events: 50, WallNs: 100},
		},
		Cells: []CellLoad{
			{Label: "a", Planned: 0, Ran: 0, Events: 50},
			{Label: "b", Planned: 1, Ran: 1, Events: 50},
		},
	}
	if got := level.EventSkew(); got != 1.0 {
		t.Fatalf("level post skew %v, want 1.0", got)
	}
	if got := level.PlannedEventSkew(); got != 1.0 {
		t.Fatalf("level planned skew %v, want 1.0", got)
	}
	if got := level.Steals(); got != 0 {
		t.Fatalf("Steals() = %d, want 0", got)
	}
	if u := level.Utilization(); u != 1.0 {
		t.Fatalf("utilization %v, want 1.0 for equal wall times", u)
	}

	// Degenerate inputs must not divide by zero.
	var empty Placement
	if empty.EventSkew() != 0 || empty.PlannedEventSkew() != 0 || empty.Utilization() != 0 {
		t.Fatal("empty placement metrics not zero")
	}
}

// TestEngineOraclePrimeAndLPT: priming the oracle with a skewed profile
// switches the plan to LPT and isolates the heavy cell, and the results
// are identical to the cold hash-planned run.
func TestEngineOraclePrimeAndLPT(t *testing.T) {
	labels := []string{"heavy", "l0", "l1", "l2"}
	job := Job{Cells: labels, Run: func(sh *Shard, cell int, label string) any {
		return label + "!"
	}}
	cold := New(2)
	coldOut := cold.Run(job)
	if cold.Placement().Oracle {
		t.Fatal("cold run claimed an oracle plan")
	}

	e := New(2)
	e.Prime(Profile{"heavy": 1000, "l0": 10, "l1": 10, "l2": 10})
	out := e.Run(job)
	p := e.Placement()
	if !p.Oracle {
		t.Fatal("primed run did not use the oracle plan")
	}
	for i := range out {
		if out[i] != coldOut[i] {
			t.Fatalf("out[%d] = %v under LPT, %v under hash: plan changed results", i, out[i], coldOut[i])
		}
	}
	// LPT must put the heavy cell alone on one shard and the three light
	// cells together on the other.
	heavy := p.Cells[0].Planned
	for i := 1; i < 4; i++ {
		if p.Cells[i].Planned == heavy {
			t.Fatalf("light cell %q planned with the heavy cell on shard %d", labels[i], heavy)
		}
	}
}

// TestEngineOracleSelfRefreshes: a second Run of the same job on the same
// engine plans with the weights the first run measured.
func TestEngineOracleSelfRefreshes(t *testing.T) {
	job := placementJob(24)
	e := New(4)
	e.Run(job)
	if e.Placement().Oracle {
		t.Fatal("first run should be a cold hash plan")
	}
	firstTotal := e.Placement().TotalEvents()
	e.Run(job)
	p := e.Placement()
	if !p.Oracle {
		t.Fatal("second run did not adopt the measured oracle")
	}
	if got := p.TotalEvents(); got != firstTotal {
		t.Fatalf("second run total events %d, want %d (same job)", got, firstTotal)
	}
	// Round-trip through Profile/Prime onto a fresh engine.
	fresh := New(4)
	fresh.Prime(p.Profile())
	fresh.Run(job)
	if !fresh.Placement().Oracle {
		t.Fatal("profile-primed engine did not use the oracle plan")
	}
	if got := fresh.Placement().TotalEvents(); got != firstTotal {
		t.Fatalf("primed engine total events %d, want %d", got, firstTotal)
	}
}

// TestStealPathZeroAllocs drains a planned two-shard queue entirely through
// the claim/steal path and requires zero allocations, as the scheduler
// contract promises. Skipped under -race, which instruments atomics.
func TestStealPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	cells := make([]string, 64)
	for i := range cells {
		cells[i] = fmt.Sprintf("z%02d", i)
	}
	e := New(2)
	e.placement = Placement{Shards: make([]ShardLoad, 2), Cells: make([]CellLoad, len(cells))}
	e.plan(Job{Cells: cells})
	allocs := testing.AllocsPerRun(100, func() {
		for s := range e.queues {
			e.queues[s].cursor.Store(0)
		}
		// Shard 1 drains its own queue, then steals everything shard 0 has.
		n := 0
		for {
			ci := e.queues[1].claim()
			if ci < 0 {
				ci = e.stealCell(1)
			}
			if ci < 0 {
				break
			}
			n++
		}
		if n == 0 {
			t.Fatal("claimed no cells")
		}
	})
	if allocs != 0 {
		t.Fatalf("steal path allocates %v per drain, want 0", allocs)
	}
}
