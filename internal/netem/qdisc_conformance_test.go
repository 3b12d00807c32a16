package netem

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// This file is the qdisc conformance suite: every discipline the spec layer
// can build is driven through seeded randomized enqueue/dequeue workloads
// and checked against the invariants the rest of the system relies on,
// whatever the discipline's internal storage shape (one ring, or fq_codel's
// bucket array):
//
//   - packet conservation: every Enqueue call is eventually accounted as
//     exactly one of delivered, tail-dropped, or AQM-dropped;
//   - gauges: Len/Bytes never go negative, agree with each other about
//     emptiness, and never exceed the configured bounds;
//   - pool hygiene: after a drop-heavy run drains, the packet pool's
//     get/put ledger balances — no drop path leaks a pooled packet;
//   - per-flow attribution: with TrackFlows on, the per-flow records sum
//     exactly to the aggregate counters;
//   - per-flow FIFO: packets of one flow are delivered in arrival order
//     (all disciplines here are FIFO within a flow — fq_codel by bucket,
//     the rest by the single ring);
//   - ECN: the number of delivered CE-marked packets equals AQMMarks, and
//     no discipline marks a non-ECT packet.
//
// The workloads are generated from fixed seeds through the test's own
// splitmix64 stream, so a conformance failure is exactly reproducible.

// conformanceRNG is a splitmix64 stream — deliberately self-contained so
// the workloads never shift under library changes.
type conformanceRNG struct{ state uint64 }

func (r *conformanceRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	h := r.state
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func (r *conformanceRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// conformanceSpecs enumerates every buildable discipline, with bounds tight
// enough that the randomized workloads exercise tail drops, AQM drops and
// (for the -ecn variants) marks. fq_codel runs with few buckets so flows
// collide, and a quantum below MTU so deficits go negative.
func conformanceSpecs() []QdiscSpec {
	return []QdiscSpec{
		{Kind: QdiscDropTail, Packets: 48},
		{Kind: QdiscInfinite},
		{Kind: QdiscCoDel, Packets: 48},
		{Kind: QdiscCoDel, Packets: 48, ECN: true},
		{Kind: QdiscPIE, Packets: 48},
		{Kind: QdiscPIE, Packets: 48, ECN: true},
		{Kind: QdiscFQCoDel, Packets: 48, Flows: 8, Quantum: 700},
		{Kind: QdiscFQCoDel, Packets: 48, Flows: 8, Quantum: 700, ECN: true},
		{Kind: QdiscDropTail, Bytes: 40_000},
		{Kind: QdiscFQCoDel, Bytes: 40_000, Flows: 8},
	}
}

// TestQdiscConformance drives every discipline through randomized
// overload/underload phases and asserts the shared invariants above.
func TestQdiscConformance(t *testing.T) {
	for _, spec := range conformanceSpecs() {
		for _, seed := range []uint64{1, 0x8290, 0xdeadbeef} {
			t.Run(fmt.Sprintf("%s/seed=%#x", spec, seed), func(t *testing.T) {
				runConformance(t, spec, seed, 8)
			})
		}
	}
}

// TestQdiscConformanceManyFlows re-runs the suite at contention scale: 1200
// distinct flows through each discipline, with capacities deep enough that
// flows interleave heavily rather than bouncing off the tail. This is the
// flow-count regime the sharded contention engine drives (fq_codel's 64
// buckets give ~19-way flow collisions per bucket), and the per-flow
// attribution check becomes a 1200-term ledger sum.
func TestQdiscConformanceManyFlows(t *testing.T) {
	specs := []QdiscSpec{
		{Kind: QdiscDropTail, Packets: 256},
		{Kind: QdiscCoDel, Packets: 256},
		{Kind: QdiscPIE, Packets: 256, ECN: true},
		{Kind: QdiscFQCoDel, Packets: 256, Flows: 64, Quantum: 700},
		{Kind: QdiscFQCoDel, Packets: 256, Flows: 64, ECN: true},
	}
	for _, spec := range specs {
		t.Run(fmt.Sprintf("%s/flows=1200", spec), func(t *testing.T) {
			runConformance(t, spec, 0x12c0, 1200)
		})
	}
}

func runConformance(t *testing.T, spec QdiscSpec, seed uint64, nFlows int) {
	t.Helper()
	q := spec.Build()
	q.QueueStats().TrackFlows()
	rng := &conformanceRNG{state: seed}
	pool := &PacketPool{}

	var (
		offered   uint64 // Enqueue calls
		accepted  uint64 // Enqueue calls that returned true
		delivered uint64
		ceCount   uint64
	)
	nextSeq := make([]int64, nFlows) // per-flow arrival sequence numbers
	lastSeq := make([]int64, nFlows) // last delivered seq per flow
	for i := range lastSeq {
		lastSeq[i] = -1
	}

	deliver := func(pkt *Packet) {
		delivered++
		if pkt.CE {
			if !pkt.ECT {
				t.Fatalf("non-ECT packet was CE-marked: %v", pkt)
			}
			ceCount++
		}
		flow := int(pkt.Flow)
		if pkt.Seq <= lastSeq[flow] {
			t.Fatalf("flow %d delivered out of order: seq %d after %d", flow, pkt.Seq, lastSeq[flow])
		}
		lastSeq[flow] = pkt.Seq
		pool.Put(pkt)
	}
	checkGauges := func() {
		if q.Len() < 0 || q.Bytes() < 0 {
			t.Fatalf("negative gauge: Len=%d Bytes=%d", q.Len(), q.Bytes())
		}
		if (q.Len() == 0) != (q.Bytes() == 0) {
			t.Fatalf("gauge disagreement: Len=%d Bytes=%d", q.Len(), q.Bytes())
		}
		if spec.Packets > 0 && q.Len() > spec.Packets {
			t.Fatalf("Len %d exceeds bound %d", q.Len(), spec.Packets)
		}
		if spec.Bytes > 0 && q.Bytes() > spec.Bytes {
			t.Fatalf("Bytes %d exceeds bound %d", q.Bytes(), spec.Bytes)
		}
	}

	// Alternate overload phases (arrivals outpace service, so queues stand
	// and AQM laws arm) with drain phases (service only). The burst size
	// scales with the flow population so capacities deep enough for a
	// many-flow run still overflow (at nFlows=8 this is the original
	// workload, byte for byte).
	burst := 4 + nFlows/16
	now := sim.Time(0)
	for phase := 0; phase < 6; phase++ {
		steps := 200 + rng.intn(200)
		overload := phase%2 == 0
		for s := 0; s < steps; s++ {
			now += sim.Time(rng.intn(3)) * sim.Millisecond
			arrivals := 0
			if overload {
				arrivals = rng.intn(burst)
			}
			for a := 0; a < arrivals; a++ {
				flow := rng.intn(nFlows)
				pkt := pool.Get()
				pkt.Size = 100 + rng.intn(MTU-99)
				pkt.Flow = uint64(flow)
				pkt.Seq = nextSeq[flow]
				pkt.ECT = rng.intn(2) == 0
				nextSeq[flow]++
				offered++
				if q.Enqueue(pkt, now) {
					accepted++
				}
				checkGauges()
			}
			for d := rng.intn(3); d > 0 && q.Len() > 0; d-- {
				if pkt := q.Dequeue(now); pkt != nil {
					deliver(pkt)
				}
				checkGauges()
			}
		}
	}
	// Final drain.
	for q.Len() > 0 {
		now += sim.Millisecond
		if pkt := q.Dequeue(now); pkt != nil {
			deliver(pkt)
		}
		checkGauges()
	}

	s := q.QueueStats()
	if s.TailDrops+s.AQMDrops == 0 && spec.Kind != QdiscInfinite {
		t.Fatalf("workload never exercised a drop path (stats %+v)", s)
	}
	// Conservation: every offered packet was delivered, tail-dropped, or
	// AQM-dropped — nothing vanished, nothing was double-counted.
	if got := s.Dequeued + s.TailDrops + s.AQMDrops; got != offered {
		t.Fatalf("conservation: offered %d != dequeued %d + tail %d + aqm %d",
			offered, s.Dequeued, s.TailDrops, s.AQMDrops)
	}
	if s.Dequeued != delivered {
		t.Fatalf("Dequeued %d != packets actually handed over %d", s.Dequeued, delivered)
	}
	if q.Dropped() != s.TailDrops+s.AQMDrops {
		t.Fatalf("Dropped() %d != TailDrops+AQMDrops %d", q.Dropped(), s.TailDrops+s.AQMDrops)
	}
	// Enqueue's return value must agree with the ledger. Single-ring
	// disciplines reject at admission (accepted == Enqueued); fq_codel
	// admits first and its overflow law may then evict the arrival itself,
	// so accepted can only undercount Enqueued by such evictions.
	if spec.Kind == QdiscFQCoDel {
		if s.Enqueued != offered {
			t.Fatalf("fq_codel Enqueued %d != offered %d", s.Enqueued, offered)
		}
		if accepted > s.Enqueued || offered-accepted > s.TailDrops {
			t.Fatalf("fq_codel admission ledger: offered %d accepted %d tail %d",
				offered, accepted, s.TailDrops)
		}
	} else {
		// Single-ring disciplines reject at admission, so accepted equals
		// Enqueued. What rejection counts as differs: droptail/codel only
		// tail-drop at enqueue (codel's law drops already-admitted packets
		// at dequeue), while PIE's law fires at enqueue, so its rejections
		// split between TailDrops and AQMDrops.
		rejected := s.TailDrops
		if spec.Kind == QdiscPIE {
			rejected += s.AQMDrops
		}
		if accepted != s.Enqueued || offered-accepted != rejected {
			t.Fatalf("admission ledger: offered %d accepted %d Enqueued %d tail %d aqm %d",
				offered, accepted, s.Enqueued, s.TailDrops, s.AQMDrops)
		}
	}
	// ECN: marks equal delivered CE packets; drop-mode disciplines never mark.
	if ceCount != s.AQMMarks {
		t.Fatalf("delivered CE packets %d != AQMMarks %d", ceCount, s.AQMMarks)
	}
	if !spec.ECN && s.AQMMarks != 0 {
		t.Fatalf("drop-mode discipline marked %d packets", s.AQMMarks)
	}
	// Pool hygiene: at quiescence every Get is balanced by a Put, whether
	// the packet was delivered (Put by the sink above) or dropped (Recycle
	// inside the discipline).
	if pool.Outstanding() != 0 {
		t.Fatalf("pool leak: %d packets outstanding after drain", pool.Outstanding())
	}
	// Per-flow attribution sums to the aggregate, counter by counter.
	var f FlowQueueStats
	for _, id := range s.Flows() {
		f.Add(s.Flow(id))
	}
	if f.Enqueued != s.Enqueued || f.Dequeued != s.Dequeued || f.TailDrops != s.TailDrops ||
		f.AQMDrops != s.AQMDrops || f.AQMMarks != s.AQMMarks || f.SojournCount != s.SojournCount ||
		f.SojournSum != s.SojournSum || f.SojournMax != s.SojournMax {
		t.Fatalf("per-flow sums diverge from aggregate:\nflows: enq=%d deq=%d tail=%d aqm=%d mark=%d sc=%d ss=%v sm=%v\naggr:  enq=%d deq=%d tail=%d aqm=%d mark=%d sc=%d ss=%v sm=%v",
			f.Enqueued, f.Dequeued, f.TailDrops, f.AQMDrops, f.AQMMarks, f.SojournCount, f.SojournSum, f.SojournMax,
			s.Enqueued, s.Dequeued, s.TailDrops, s.AQMDrops, s.AQMMarks, s.SojournCount, s.SojournSum, s.SojournMax)
	}
}
