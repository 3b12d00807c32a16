package engine

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// link20 is the constant 20 Mbit/s trace every test cell's two directions
// share.
var link20 = func() *trace.Trace {
	t, err := trace.Constant(20_000_000, 1000)
	if err != nil {
		panic(err)
	}
	return t
}()

// smallSpec is a quick contention cell: 30 flows, trimmed transfer sizes.
func smallSpec(seed uint64) ContentionSpec {
	return ContentionSpec{
		Seed:        seed,
		Flows:       30,
		Mix:         Mix{Web: 6, Bulk: 1, RPC: 3},
		BulkBytes:   64 << 10,
		WebMaxBytes: 32 << 10,
		Qdisc:       netem.QdiscSpec{Kind: netem.QdiscCoDel, Packets: 300},
		Up:          link20,
		Down:        link20,
	}
}

func TestContentionCompletesAndQuiesces(t *testing.T) {
	sh := NewShard()
	spec := smallSpec(42)
	spec.TrackClassSojourns = true
	res := RunContention(sh, spec)

	if res.FlowsDone != spec.Flows {
		t.Fatalf("FlowsDone = %d, want %d", res.FlowsDone, spec.Flows)
	}
	if res.Errors != 0 {
		t.Fatalf("Errors = %d, want 0", res.Errors)
	}
	counts := spec.Mix.Counts(spec.Flows)
	wantXfers := [numClasses]int{counts[ClassWeb] * 2, counts[ClassBulk], counts[ClassRPC] * 6}
	for cls := Class(0); cls < numClasses; cls++ {
		st := res.Classes[cls]
		if st.Flows != counts[cls] {
			t.Fatalf("%v flows = %d, want %d", cls, st.Flows, counts[cls])
		}
		if st.Transfers != wantXfers[cls] {
			t.Fatalf("%v transfers = %d, want %d", cls, st.Transfers, wantXfers[cls])
		}
		if st.Bytes == 0 || st.XferP95Ms <= 0 {
			t.Fatalf("%v stats empty: %+v", cls, st)
		}
		if st.QBytes == 0 {
			t.Fatalf("%v saw no downlink queue bytes", cls)
		}
	}
	if res.PeakConns < 2 {
		t.Fatalf("PeakConns = %d: population was never concurrent", res.PeakConns)
	}
	if res.Events == 0 || res.Duration <= 0 {
		t.Fatalf("empty run: events=%d duration=%v", res.Events, res.Duration)
	}

	// Quiescence ledgers: every pooled object came home. This is the
	// sharding contract — a shard's pools can be reused by the next cell
	// only because a finished cell leaks nothing into them.
	if n := sh.Pools().OutstandingDatagrams(); n != 0 {
		t.Fatalf("%d datagrams outstanding", n)
	}
	if n := sh.Pools().OutstandingPackets(); n != 0 {
		t.Fatalf("%d packets outstanding", n)
	}
	if n := sh.Segments().Outstanding(); n != 0 {
		t.Fatalf("%d segments outstanding", n)
	}
	if n := sh.Conns().Outstanding(); n != 0 {
		t.Fatalf("%d conns outstanding", n)
	}
}

// contentionArtifact renders a grid of contention cells through the engine:
// the byte stream the determinism tests compare across shard counts.
func contentionArtifact(shards int, seed uint64) string {
	qdiscs := []netem.QdiscSpec{
		{Packets: 300},
		{Kind: netem.QdiscCoDel, Packets: 300},
		{Kind: netem.QdiscCoDel, Packets: 300, ECN: true},
		{Kind: netem.QdiscFQCoDel, Packets: 300},
		{Kind: netem.QdiscPIE, Packets: 300},
		{Packets: 32},
	}
	cells := make([]string, len(qdiscs))
	for i, q := range qdiscs {
		cells[i] = "contention/" + q.String()
	}
	e := New(shards)
	out := e.Run(Job{Cells: cells, Run: func(sh *Shard, cell int, label string) any {
		spec := smallSpec(sim.DeriveSeed(seed, label))
		spec.Qdisc = qdiscs[cell]
		spec.TrackClassSojourns = true
		return RunContention(sh, spec)
	}})
	s := ""
	for i, v := range out {
		s += fmt.Sprintf("%s %+v\n", cells[i], v)
	}
	return s
}

func TestContentionArtifactShardCountInvariant(t *testing.T) {
	want := contentionArtifact(1, 99)
	for _, shards := range []int{2, 8} {
		if got := contentionArtifact(shards, 99); got != want {
			t.Fatalf("artifact differs at %d shards:\n--- 1 shard ---\n%s--- %d shards ---\n%s",
				shards, want, shards, got)
		}
	}
}

func TestContentionAllocsScaleWithTransfersNotPackets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting in -short mode")
	}
	if raceEnabled {
		t.Skip("race-detector bookkeeping allocates per sync operation")
	}
	// On a warmed shard a cell allocates only its fixed set-up: the
	// per-packet and per-event paths allocate nothing, and everything a
	// cell grows with its population (connection and socket tables, qdisc
	// rings, per-connection queues) is borrowed from the shard's pools.
	// Each case contrasts smallSpec with a spec doing far more work: the
	// same flows and transfers moving 24x the bytes (so several times the
	// packets and events), and 100x the flows.
	small := smallSpec(7)
	bytes := small
	bytes.BulkBytes = small.BulkBytes * 24
	bytes.WebMinBytes = small.WebMinBytes * 24
	bytes.WebMaxBytes = small.WebMaxBytes * 24
	bytes.RPCBytes = small.RPCBytes * 24
	flows := small
	flows.Flows = small.Flows * 100

	shSmall := NewShard()
	RunContention(shSmall, small) // warm pools
	resS := RunContention(shSmall, small)
	allocsSmall := testing.AllocsPerRun(3, func() { RunContention(shSmall, small) })
	for _, tc := range []struct {
		name string
		big  ContentionSpec
	}{{"packets", bytes}, {"flows", flows}} {
		t.Run(tc.name, func(t *testing.T) {
			sh := NewShard()
			RunContention(sh, tc.big)
			resB := RunContention(sh, tc.big)
			if resB.Events < 3*resS.Events {
				t.Fatalf("big spec fired %d events vs small %d: not a work contrast",
					resB.Events, resS.Events)
			}
			allocsBig := testing.AllocsPerRun(3, func() { RunContention(sh, tc.big) })
			// The heavier cell may not allocate meaningfully more. The
			// slack covers stats accumulator growth.
			if allocsBig > allocsSmall*1.25+64 {
				t.Fatalf("allocs grew with the cell's work: small=%.0f big=%.0f (events %d vs %d)",
					allocsSmall, allocsBig, resS.Events, resB.Events)
			}
		})
	}
}

// TestWarmCellAllocationsIgnoreGC: a warm shard's cell allocates the same
// fixed count whether or not the collector has just run. Every object a
// cell recycles is parked in the shard's own pools, which a collection
// leaves alone; a process-wide sync.Pool on the cell's path would be
// emptied by it, and the next cell would allocate its contents again.
func TestWarmCellAllocationsIgnoreGC(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector bookkeeping allocates per sync operation")
	}
	sh := NewShard()
	spec := smallSpec(7)
	RunContention(sh, spec) // warm the pools
	RunContention(sh, spec)
	// mallocs is the fewest allocations of three cells, each run right
	// after two collections (a sync.Pool survives one) when gc is set.
	mallocs := func(gc bool) uint64 {
		fewest := uint64(math.MaxUint64)
		for range 3 {
			if gc {
				runtime.GC()
				runtime.GC()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			RunContention(sh, spec)
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return fewest
	}
	warm, afterGC := mallocs(false), mallocs(true)
	if warm != afterGC {
		t.Fatalf("warm cell allocated %d times, %d right after a collection", warm, afterGC)
	}
	t.Logf("warm cell allocated %d times, with or without a collection first", warm)
}

func TestContentionRequiresLinks(t *testing.T) {
	for _, spec := range []ContentionSpec{{Flows: 1, Up: link20}, {Flows: 1, Down: link20}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "ContentionSpec.Up") || !strings.Contains(msg, "ContentionSpec.Down") {
					t.Errorf("RunContention without a link panicked with %q, want it to name Up and Down", msg)
				}
			}()
			RunContention(NewShard(), spec)
		}()
	}
}

func TestMixParseAndCounts(t *testing.T) {
	m, err := ParseMix("6:1:3")
	if err != nil {
		t.Fatal(err)
	}
	if m != (Mix{Web: 6, Bulk: 1, RPC: 3}) {
		t.Fatalf("ParseMix = %+v", m)
	}
	if m.String() != "6:1:3" {
		t.Fatalf("String = %q", m.String())
	}
	for _, bad := range []string{"", "1:2", "1:2:3:4", "a:b:c", "-1:2:3", "0:0:0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
	for flows := 0; flows <= 137; flows++ {
		c := m.Counts(flows)
		if c[0]+c[1]+c[2] != flows && flows > 0 {
			t.Fatalf("Counts(%d) = %v does not sum", flows, c)
		}
	}
	c := m.Counts(100)
	if c[ClassWeb] != 60 || c[ClassBulk] != 10 || c[ClassRPC] != 30 {
		t.Fatalf("Counts(100) = %v, want [60 10 30]", c)
	}
}
