package experiments

import (
	"runtime"
	"sort"
	"testing"

	"repro/internal/archive"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/webgen"
)

// liveHeap returns the bytes of heap still reachable after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestScratchSteadyStateMemory loads the heaviest pages of a corpus again
// and again on one reused Scratch, under a rate-limited and a lossy shell
// stack, and requires the live heap to stop growing once the scratch is
// warm: after pass 16 it may hold at most a fixed slack more than after
// pass 4. Reuse is meant to recycle working storage, not to keep the
// largest response any connection ever carried.
func TestScratchSteadyStateMemory(t *testing.T) {
	const (
		heavy  = 2
		passes = 16
		slack  = 1 << 20
	)
	pages := corpusPages(1, 100)
	sort.SliceStable(pages, func(a, b int) bool { return pages[a].TotalBytes() > pages[b].TotalBytes() })
	pages = pages[:heavy]
	sites := make([]*archive.Site, heavy)
	for i, p := range pages {
		sites[i] = webgen.Materialize(p)
	}
	link, err := trace.Constant(14_000_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	stacks := [][]shells.Shell{
		{shells.NewDelayShell(30 * sim.Millisecond), shells.NewLinkShell(link, link)},
		{shells.NewDelayShell(20 * sim.Millisecond), &shells.LossShell{UpProb: 0.01, DownProb: 0.01, Seed: 7}},
	}
	sc := NewScratch()
	var atWarm uint64
	for pass := 1; pass <= passes; pass++ {
		for i, p := range pages {
			for _, st := range stacks {
				r := Load(LoadSpec{Page: p, Site: sites[i], DNSLatency: sim.Millisecond,
					RequestCPU: DefaultRequestCPU, Shells: st, Scratch: sc})
				if r.Errors != 0 || r.Failed != 0 {
					t.Fatalf("pass %d, page %d: %d errors, %d failed", pass, i, r.Errors, r.Failed)
				}
			}
		}
		switch pass {
		case 4:
			atWarm = liveHeap()
		case passes:
			heap := liveHeap()
			t.Logf("live heap %.1f MB after pass 4, %.1f MB after pass %d", float64(atWarm)/1e6, float64(heap)/1e6, passes)
			if heap > atWarm+slack {
				t.Fatalf("live heap grew %.1f MB from pass 4 to pass %d on a reused Scratch (slack %.1f MB)",
					float64(heap-atWarm)/1e6, passes, float64(slack)/1e6)
			}
		}
	}
}
