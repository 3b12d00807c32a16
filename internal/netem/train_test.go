package netem

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// delivery records one packet hand-off for order/time assertions.
type delivery struct {
	at   sim.Time
	flow uint64
	seq  int64
}

// recordSinks installs both a per-packet and a batch sink on the box,
// recording every delivery in arrival order (the batch sink decomposes
// trains, which is exactly the equivalence under test).
func recordSinks(loop *sim.Loop, b Box, got *[]delivery) {
	record := func(p *Packet) {
		*got = append(*got, delivery{at: loop.Now(), flow: p.Flow, seq: p.Seq})
	}
	b.SetSink(record)
	b.SetBatchSink(func(pkts []*Packet) {
		for _, p := range pkts {
			record(p)
		}
	})
}

func equalDeliveries(a, b []delivery) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runScenario drives the same traffic through a fresh box twice — once via
// per-packet Send, once via SendBatch — and returns both delivery logs.
// The two must be identical: trains are an event-count optimization, never
// a behavioral one.
func runScenario(t *testing.T, mk func(loop *sim.Loop) Box, traffic func(inject func(batch bool, pkts ...*Packet)) func(loop *sim.Loop)) (perPacket, batched []delivery) {
	t.Helper()
	run := func(batch bool) []delivery {
		loop := sim.NewLoop()
		box := mk(loop)
		var got []delivery
		recordSinks(loop, box, &got)
		inject := func(asBatch bool, pkts ...*Packet) {
			if asBatch && batch {
				box.SendBatch(pkts)
				return
			}
			for _, p := range pkts {
				box.Send(p)
			}
		}
		traffic(inject)(loop)
		loop.Run()
		return got
	}
	return run(false), run(true)
}

// TestTrainDelayBoxBurstOneEvent checks the core batching claim: a burst
// entering a DelayBox at one instant costs one delivery event, and the
// packets still come out at the exact delay, in FIFO order.
func TestTrainDelayBoxBurstOneEvent(t *testing.T) {
	loop := sim.NewLoop()
	d := NewDelayBox(loop, 30*sim.Millisecond)
	var got []delivery
	recordSinks(loop, d, &got)
	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < 8; i++ {
			d.Send(&Packet{Size: MTU, Flow: 1, Seq: int64(i)})
		}
	})
	loop.Run()
	// Exactly two events fire in total: the injector, then the burst's
	// single shared train event — not one release event per packet.
	if loop.Fired() != 2 {
		t.Fatalf("run fired %d events, want 2 (injector + one train)", loop.Fired())
	}
	if len(got) != 8 {
		t.Fatalf("delivered %d packets, want 8", len(got))
	}
	for i, g := range got {
		if g.at != 30*sim.Millisecond || g.seq != int64(i) {
			t.Fatalf("delivery %d = %+v, want seq %d at 30ms", i, g, i)
		}
	}
}

// TestTrainGuardSplitsOnInterleavedEvent checks the adjacency guard: when
// an unrelated event is scheduled between two same-instant sends, the
// second packet must open a new train and global firing order must match
// the per-packet schedule exactly.
func TestTrainGuardSplitsOnInterleavedEvent(t *testing.T) {
	loop := sim.NewLoop()
	d := NewDelayBox(loop, 10*sim.Millisecond)
	var order []string
	d.SetSink(func(p *Packet) { order = append(order, p.String()) })
	d.SetBatchSink(func(pkts []*Packet) {
		for _, p := range pkts {
			order = append(order, p.String())
		}
	})
	loop.Schedule(0, func(sim.Time) {
		d.Send(&Packet{Size: 1, Flow: 1, Seq: 1})
		// An unrelated event lands at the exact exit instant of the train:
		// it must fire between the two packets' deliveries, as the
		// per-packet schedule would have it.
		loop.Schedule(10*sim.Millisecond, func(sim.Time) { order = append(order, "interloper") })
		d.Send(&Packet{Size: 1, Flow: 1, Seq: 2})
	})
	loop.Run()
	want := []string{"pkt{flow=1 seq=1 size=1}", "interloper", "pkt{flow=1 seq=2 size=1}"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("firing order %v, want %v", order, want)
	}
}

// TestTrainTwoFlowsInterleaveThroughSharedBox: two flows alternating sends
// into one shared DelayBox at the same instant must come out in exactly
// the interleaved arrival order, batched or not.
func TestTrainTwoFlowsInterleaveThroughSharedBox(t *testing.T) {
	traffic := func(inject func(bool, ...*Packet)) func(*sim.Loop) {
		return func(loop *sim.Loop) {
			loop.Schedule(0, func(sim.Time) {
				// Flow 1 bursts as a train; flow 2's packets arrive singly
				// in between — all at one instant through one box.
				inject(true, &Packet{Size: MTU, Flow: 1, Seq: 10}, &Packet{Size: MTU, Flow: 1, Seq: 11})
				inject(false, &Packet{Size: MTU, Flow: 2, Seq: 20})
				inject(true, &Packet{Size: MTU, Flow: 1, Seq: 12})
				inject(false, &Packet{Size: MTU, Flow: 2, Seq: 21})
			})
		}
	}
	mk := func(loop *sim.Loop) Box { return NewDelayBox(loop, 25*sim.Millisecond) }
	perPacket, batched := runScenario(t, mk, traffic)
	if !equalDeliveries(perPacket, batched) {
		t.Fatalf("batched deliveries diverge:\nper-packet: %v\nbatched:    %v", perPacket, batched)
	}
	if len(batched) != 5 {
		t.Fatalf("delivered %d, want 5", len(batched))
	}
	wantSeq := []int64{10, 11, 20, 12, 21}
	for i, g := range batched {
		if g.seq != wantSeq[i] || g.at != 25*sim.Millisecond {
			t.Fatalf("delivery %d = %+v, want seq %d at 25ms", i, g, wantSeq[i])
		}
	}
}

// TestTrainSplitAcrossTraceOpportunities: a train entering a TraceBox is
// consumed one packet per delivery opportunity — the batch must not let
// packets jump opportunity boundaries.
func TestTrainSplitAcrossTraceOpportunities(t *testing.T) {
	mkOpps := func() *fixedOpps {
		return &fixedOpps{times: []sim.Time{
			10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond,
		}}
	}
	traffic := func(inject func(bool, ...*Packet)) func(*sim.Loop) {
		return func(loop *sim.Loop) {
			loop.Schedule(0, func(sim.Time) {
				inject(true,
					&Packet{Size: MTU, Flow: 1, Seq: 1},
					&Packet{Size: MTU, Flow: 1, Seq: 2},
					&Packet{Size: MTU, Flow: 1, Seq: 3})
			})
		}
	}
	mk := func(loop *sim.Loop) Box { return NewTraceBox(loop, mkOpps(), nil) }
	perPacket, batched := runScenario(t, mk, traffic)
	if !equalDeliveries(perPacket, batched) {
		t.Fatalf("batched deliveries diverge:\nper-packet: %v\nbatched:    %v", perPacket, batched)
	}
	want := []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond}
	if len(batched) != 3 {
		t.Fatalf("delivered %d, want 3", len(batched))
	}
	for i, g := range batched {
		if g.at != want[i] {
			t.Fatalf("delivery %d at %v, want %v", i, g.at, want[i])
		}
	}
}

// TestTrainDropsMidTrainAtDropTail: a train longer than the droptail bound
// is truncated mid-train; survivors are exactly the prefix that fit, and
// they drain at successive opportunities.
func TestTrainDropsMidTrainAtDropTail(t *testing.T) {
	mkOpps := func() *fixedOpps { return &fixedOpps{times: []sim.Time{5 * sim.Millisecond}} }
	mkPkts := func() []*Packet {
		pkts := make([]*Packet, 6)
		for i := range pkts {
			pkts[i] = &Packet{Size: MTU, Flow: 1, Seq: int64(i)}
		}
		return pkts
	}
	traffic := func(inject func(bool, ...*Packet)) func(*sim.Loop) {
		return func(loop *sim.Loop) {
			loop.Schedule(0, func(sim.Time) { inject(true, mkPkts()...) })
		}
	}
	var boxes []Box
	mk := func(loop *sim.Loop) Box {
		b := NewTraceBox(loop, mkOpps(), NewDropTail(4, 0))
		boxes = append(boxes, b)
		return b
	}
	perPacket, batched := runScenario(t, mk, traffic)
	if !equalDeliveries(perPacket, batched) {
		t.Fatalf("batched deliveries diverge:\nper-packet: %v\nbatched:    %v", perPacket, batched)
	}
	if len(batched) != 4 {
		t.Fatalf("delivered %d, want the 4 that fit the queue", len(batched))
	}
	for i, g := range batched {
		if g.seq != int64(i) {
			t.Fatalf("survivor %d has seq %d, want %d (head of train must survive)", i, g.seq, i)
		}
	}
	for _, b := range boxes {
		if got := b.Stats().Dropped; got != 2 {
			t.Fatalf("dropped = %d, want 2", got)
		}
	}
}

// TestTrainRateBoxPrecomputedExits: a train through a RateBox serializes
// packet-by-packet with precomputed exits — identical to per-packet sends,
// at exactly size*8/rate spacing.
func TestTrainRateBoxPrecomputedExits(t *testing.T) {
	const bps = 12_000_000 // MTU serializes in 1 ms
	traffic := func(inject func(bool, ...*Packet)) func(*sim.Loop) {
		return func(loop *sim.Loop) {
			loop.Schedule(0, func(sim.Time) {
				inject(true,
					&Packet{Size: MTU, Flow: 1, Seq: 1},
					&Packet{Size: MTU, Flow: 1, Seq: 2},
					&Packet{Size: 750, Flow: 1, Seq: 3})
			})
			// A straggler arrives mid-train and queues behind it.
			loop.Schedule(sim.Millisecond/2, func(sim.Time) {
				inject(false, &Packet{Size: MTU, Flow: 2, Seq: 4})
			})
		}
	}
	mk := func(loop *sim.Loop) Box { return NewRateBox(loop, bps, nil) }
	perPacket, batched := runScenario(t, mk, traffic)
	if !equalDeliveries(perPacket, batched) {
		t.Fatalf("batched deliveries diverge:\nper-packet: %v\nbatched:    %v", perPacket, batched)
	}
	want := []sim.Time{
		1 * sim.Millisecond,         // MTU
		2 * sim.Millisecond,         // MTU
		2*sim.Millisecond + 500_000, // 750 B = 0.5 ms
		3*sim.Millisecond + 500_000, // straggler queues behind the train
	}
	if len(batched) != 4 {
		t.Fatalf("delivered %d, want 4", len(batched))
	}
	for i, g := range batched {
		if g.at != want[i] {
			t.Fatalf("delivery %d at %v, want %v", i, g.at, want[i])
		}
	}
}

// TestTrainLossBoxShortensTrain: drops inside a train shorten it without
// reordering, and the RNG consumes draws in train order (batched and
// per-packet runs see identical loss patterns).
func TestTrainLossBoxShortensTrain(t *testing.T) {
	mkPkts := func() []*Packet {
		pkts := make([]*Packet, 32)
		for i := range pkts {
			pkts[i] = &Packet{Size: MTU, Flow: 1, Seq: int64(i)}
		}
		return pkts
	}
	traffic := func(inject func(bool, ...*Packet)) func(*sim.Loop) {
		return func(loop *sim.Loop) {
			loop.Schedule(0, func(sim.Time) { inject(true, mkPkts()...) })
		}
	}
	mk := func(loop *sim.Loop) Box { return NewLossBox(0.3, sim.NewRand(7)) }
	perPacket, batched := runScenario(t, mk, traffic)
	if len(batched) == 0 || len(batched) == 32 {
		t.Fatalf("loss box dropped %d of 32; seed gives a mid-range pattern", 32-len(batched))
	}
	if !equalDeliveries(perPacket, batched) {
		t.Fatalf("loss pattern diverges between per-packet and batched runs:\nper-packet: %v\nbatched:    %v", perPacket, batched)
	}
	for i := 1; i < len(batched); i++ {
		if batched[i].seq <= batched[i-1].seq {
			t.Fatalf("survivors reordered: %v", batched)
		}
	}
}

// TestTrainThroughPipeline: a train survives a multi-box pipeline
// (delay -> loss -> delay) intact and identical to per-packet forwarding.
func TestTrainThroughPipeline(t *testing.T) {
	mkPkts := func() []*Packet {
		pkts := make([]*Packet, 10)
		for i := range pkts {
			pkts[i] = &Packet{Size: MTU, Flow: 1, Seq: int64(i)}
		}
		return pkts
	}
	traffic := func(inject func(bool, ...*Packet)) func(*sim.Loop) {
		return func(loop *sim.Loop) {
			loop.Schedule(0, func(sim.Time) { inject(true, mkPkts()...) })
		}
	}
	mk := func(loop *sim.Loop) Box {
		return NewPipeline(
			NewDelayBox(loop, 10*sim.Millisecond),
			NewLossBox(0.2, sim.NewRand(3)),
			NewDelayBox(loop, 5*sim.Millisecond),
		)
	}
	perPacket, batched := runScenario(t, mk, traffic)
	if !equalDeliveries(perPacket, batched) {
		t.Fatalf("pipeline deliveries diverge:\nper-packet: %v\nbatched:    %v", perPacket, batched)
	}
	for _, g := range batched {
		if g.at != 15*sim.Millisecond {
			t.Fatalf("delivery at %v, want 15ms", g.at)
		}
	}
}

// TestTrainGateBoxDrainAsTrain: packets held through an off period leave
// as one train at the restore instant, preserving order.
func TestTrainGateBoxDrainAsTrain(t *testing.T) {
	loop := sim.NewLoop()
	g := NewScriptedGateBox(loop, nil)
	outage(loop, g, 10*sim.Millisecond, 20*sim.Millisecond)
	var got []delivery
	recordSinks(loop, g, &got)
	// Off period spans [10ms, 20ms): these arrive while off and are held.
	loop.Schedule(12*sim.Millisecond, func(sim.Time) {
		g.Send(&Packet{Size: MTU, Flow: 1, Seq: 1})
		g.Send(&Packet{Size: MTU, Flow: 2, Seq: 2})
	})
	loop.RunUntil(25 * sim.Millisecond)
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2", len(got))
	}
	for i, g := range got {
		if g.at != 20*sim.Millisecond || g.seq != int64(i+1) {
			t.Fatalf("delivery %d = %+v, want seq %d at 20ms", i, g, i+1)
		}
	}
}

// TestEveryBoxDeliversToBatchSinkAlone: pipelines and nsim link ends wire
// boxes through batch sinks only, so every box must accept Send with no
// per-packet sink installed and deliver every packet, in order, as
// non-empty trains. Boxes whose exits are distinct instants (RateBox,
// TraceBox) deliver one-element trains.
func TestEveryBoxDeliversToBatchSinkAlone(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(loop *sim.Loop) Box
	}{
		{"empty pipeline", func(*sim.Loop) Box { return NewPipeline() }},
		{"delay", func(loop *sim.Loop) Box { return NewDelayBox(loop, sim.Millisecond) }},
		{"loss", func(*sim.Loop) Box { return NewLossBox(0, sim.NewRand(1)) }},
		{"rate", func(loop *sim.Loop) Box { return NewRateBox(loop, 12_000_000, nil) }},
		{"trace", func(loop *sim.Loop) Box { return NewTraceBox(loop, stubOpps{sim.Millisecond}, nil) }},
		{"gate", func(loop *sim.Loop) Box { return NewScriptedGateBox(loop, nil) }},
		{"reorder", func(loop *sim.Loop) Box { return NewReorderBox(loop, 1, 0, 2, sim.Millisecond, sim.NewRand(1)) }},
		{"duplicate", func(*sim.Loop) Box { return NewDuplicateBox(0, 0, sim.NewRand(1)) }},
		{"corrupt", func(*sim.Loop) Box { return NewCorruptBox(1, 0, sim.NewRand(1)) }},
		{"pipeline", func(loop *sim.Loop) Box {
			return NewPipeline(NewDelayBox(loop, sim.Millisecond), NewRateBox(loop, 12_000_000, nil))
		}},
	} {
		loop := sim.NewLoop()
		box := tc.mk(loop)
		var seqs []int64
		maxTrain := 0
		box.SetBatchSink(func(pkts []*Packet) {
			if len(pkts) == 0 {
				t.Errorf("%s: empty train delivered", tc.name)
			}
			maxTrain = max(maxTrain, len(pkts))
			for _, p := range pkts {
				seqs = append(seqs, p.Seq)
			}
		})
		loop.Schedule(0, func(sim.Time) {
			for i := int64(1); i <= 4; i++ {
				box.Send(&Packet{Size: MTU, Seq: i})
			}
		})
		loop.Run()
		if len(seqs) != 4 || (tc.name != "reorder" && !slices.IsSorted(seqs)) {
			t.Errorf("%s: delivered %v, want 4 packets in order", tc.name, seqs)
		}
		if (tc.name == "rate" || tc.name == "trace" || tc.name == "pipeline") && maxTrain != 1 {
			t.Errorf("%s: longest train %d, want one-element trains", tc.name, maxTrain)
		}
		if st := box.Stats(); st.Arrived != 4 || st.Delivered != 4 {
			t.Errorf("%s: stats %+v, want 4 arrived and delivered", tc.name, st)
		}
	}
}
