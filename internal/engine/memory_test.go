package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// liveHeap returns the bytes of heap still reachable after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestShardSteadyStateMemory runs the same contention cells again and
// again on one reused shard and requires the live heap to stop growing
// once the shard is warm: after pass 12 it may hold at most a fixed slack
// more than after pass 4. The cells are perfbench's droptail and fq_codel
// cells on its constant and cellular links, at 2,000 flows. The shard's
// pools own the storage a cell grows (connection and socket tables, qdisc
// rings, per-connection queues), so a reused shard recycles it instead of
// accumulating it. The slack is far below one cell's tables: a table
// handed out to the wrong role, or handed back without its deletion
// markers reset, regrows by more than that within a few passes.
func TestShardSteadyStateMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-pass heap measurement in -short mode")
	}
	if raceEnabled {
		t.Skip("race-detector shadow memory swamps the heap measurement")
	}
	const (
		flows  = 2000
		passes = 12
		slack  = 128 << 10
	)
	fast, err := trace.Constant(400_000_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	up12, err := trace.Constant(12_000_000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	cellular, err := trace.Cellular(sim.NewRand(sim.DeriveSeed(1, "cellular")), 6_000_000, 20_000_000, 100, 4000)
	if err != nil {
		t.Fatal(err)
	}
	links := []struct {
		name     string
		up, down *trace.Trace
	}{{"constant", fast, fast}, {"cellular", up12, cellular}}
	qdiscs := []netem.QdiscSpec{
		{Packets: 600},
		{Kind: netem.QdiscFQCoDel, Packets: 600, Flows: 256},
	}
	var specs []ContentionSpec
	for _, l := range links {
		for _, q := range qdiscs {
			specs = append(specs, ContentionSpec{
				Seed:          sim.DeriveSeed(1, "contention", fmt.Sprintf("%s+%s/%d", l.name, q, flows)),
				Flows:         flows,
				Mix:           Mix{Web: 8, Bulk: 1, RPC: 1},
				Qdisc:         q,
				Up:            l.up,
				Down:          l.down,
				ArrivalWindow: 500 * sim.Millisecond,
				WebTransfers:  1,
				WebThink:      10 * sim.Millisecond,
				WebMaxBytes:   32 << 10,
				BulkBytes:     64 << 10,
				RPCCalls:      2,
				RPCGap:        10 * sim.Millisecond,
			})
		}
	}

	sh := NewShard()
	var atWarm uint64
	for pass := 1; pass <= passes; pass++ {
		for _, spec := range specs {
			if r := RunContention(sh, spec); r.FlowsDone != r.Flows || r.Errors != 0 {
				t.Fatalf("pass %d, %s: %d/%d flows done, %d errors", pass, spec.Qdisc, r.FlowsDone, r.Flows, r.Errors)
			}
		}
		switch pass {
		case 4:
			atWarm = liveHeap()
		case passes:
			heap := liveHeap()
			t.Logf("live heap %.2f MB after pass 4, %.2f MB after pass %d", float64(atWarm)/1e6, float64(heap)/1e6, passes)
			if heap > atWarm+slack {
				t.Fatalf("live heap grew %.2f MB from pass 4 to pass %d on a reused shard (slack %.2f MB)",
					float64(heap-atWarm)/1e6, passes, float64(slack)/1e6)
			}
		}
	}
}
