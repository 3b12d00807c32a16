package netem

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// stubOpps is a strictly periodic opportunity source for handover tests.
type stubOpps struct {
	period sim.Time
}

func (o stubOpps) Next(after sim.Time) sim.Time {
	return (after/o.period + 1) * o.period
}

// TestScenarioScriptGoldenTranscript pins the full artifact surface of a
// scripted run — transition instants, drain accounting, per-phase epoch
// deltas — against a golden transcript. A burst enters a rate-limited
// link; mid-drain the script steps the rate, hot-swaps the qdisc to codel
// under DrainHold (backlog re-enqueued), and later swaps to a 4-packet
// droptail under DrainFlush (backlog discarded with accounting).
func TestScenarioScriptGoldenTranscript(t *testing.T) {
	loop := sim.NewLoop()
	q := NewDropTail(0, 0)
	r := NewRateBox(loop, 1_000_000, q) // 12 ms per MTU packet
	delivered := 0
	r.SetSink(func(pkt *Packet) { delivered++ })

	script := NewScenarioScript(loop)
	script.Watch(q)
	script.RateStep(60*sim.Millisecond, r, 2_000_000)
	script.SwapQdisc(120*sim.Millisecond, r, QdiscSpec{Kind: QdiscCoDel}, DrainHold)
	script.SwapQdisc(200*sim.Millisecond, r, QdiscSpec{Packets: 4}, DrainFlush)

	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < 30; i++ {
			r.Send(&Packet{Size: MTU, Flow: uint64(i % 3)})
		}
	})
	loop.Run()
	script.Finish(loop.Now())

	var b strings.Builder
	RenderTranscript(&b, script.Transitions(), script.Epochs())
	got := b.String()
	const want = `  @60ms      rate-2000000bps          moved=0    dropped=0
  @120ms     qdisc-codel-hold         moved=15   dropped=0
  @200ms     qdisc-droptail-4p-flush  moved=0    dropped=1
  phase                                 enq    deq taildrp  aqmdrp aqmmark flushed meanq ms
  0s..60ms rate-2000000bps               30      5       0       0       0       0     24.0
  60ms..120ms qdisc-codel-hold            0     10       0       0       0      15     87.0
  120ms..200ms qdisc-droptail-4p-flush      0     14       0       0       0       1     39.0
  200ms..204ms end                        0      0       0       0       0       0      0.0
`
	if got != want {
		t.Fatalf("transcript mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}

	// Conservation across the whole run: every packet either reached the
	// sink or was dropped at a flush boundary.
	if delivered+1 != 30 {
		t.Fatalf("delivered %d + flush-dropped 1 != 30 sent", delivered)
	}
	// The box's cumulative drop telemetry carries the flush drops even
	// though the qdisc that held them was discarded.
	if st := r.Stats(); st.Dropped != 1 {
		t.Fatalf("BoxStats.Dropped = %d, want 1 (flush-policy drops carried)", st.Dropped)
	}
}

// TestScenarioScriptGateOutage pins outage drain accounting on a scripted
// gate: a hold link-up replays the whole backlog, a flush link-up drops it
// with accounting, and the gate's cumulative drop count reflects the purge.
func TestScenarioScriptGateOutage(t *testing.T) {
	loop := sim.NewLoop()
	g := NewScriptedGateBox(loop, nil)
	var deliveredAt []sim.Time
	g.SetSink(func(*Packet) { deliveredAt = append(deliveredAt, loop.Now()) })

	script := NewScenarioScript(loop)
	script.LinkDown(10*sim.Millisecond, g)
	script.LinkUp(50*sim.Millisecond, g, DrainHold)
	script.LinkDown(60*sim.Millisecond, g)
	script.LinkUp(90*sim.Millisecond, g, DrainFlush)

	send := func(at sim.Time, n int) {
		loop.Schedule(at, func(sim.Time) {
			for i := 0; i < n; i++ {
				g.Send(&Packet{Size: 100})
			}
		})
	}
	send(0, 1)                  // passes through while on
	send(20*sim.Millisecond, 3) // held through outage 1, replayed at 50ms
	send(70*sim.Millisecond, 2) // held through outage 2, purged at 90ms
	loop.Run()
	script.Finish(loop.Now())

	tr := script.Transitions()
	if len(tr) != 4 {
		t.Fatalf("got %d transitions, want 4", len(tr))
	}
	if tr[1].Label != "link-up-hold" || tr[1].Moved != 3 || tr[1].Dropped != 0 {
		t.Fatalf("hold link-up = %+v, want moved=3 dropped=0", tr[1])
	}
	if tr[3].Label != "link-up-flush" || tr[3].Moved != 0 || tr[3].Dropped != 2 {
		t.Fatalf("flush link-up = %+v, want moved=0 dropped=2", tr[3])
	}
	wantAt := []sim.Time{0, 50 * sim.Millisecond, 50 * sim.Millisecond, 50 * sim.Millisecond}
	if len(deliveredAt) != len(wantAt) {
		t.Fatalf("delivered %d packets at %v, want %d", len(deliveredAt), deliveredAt, len(wantAt))
	}
	for i, at := range wantAt {
		if deliveredAt[i] != at {
			t.Fatalf("delivery %d at %v, want %v", i, deliveredAt[i], at)
		}
	}
	if st := g.Stats(); st.Dropped != 2 {
		t.Fatalf("gate Dropped = %d, want 2 (flush purge)", st.Dropped)
	}
	if qs := g.Queue().QueueStats(); qs.Flushed != 2 {
		t.Fatalf("gate queue Flushed = %d, want 2", qs.Flushed)
	}
}

// TestScenarioScriptHandover pins the delivery schedule across a scripted
// trace handover: opportunities come from the old source until the switch
// instant and from the new source strictly after it.
func TestScenarioScriptHandover(t *testing.T) {
	loop := sim.NewLoop()
	tb := NewTraceBox(loop, stubOpps{period: 10 * sim.Millisecond}, nil)
	var deliveredAt []sim.Time
	tb.SetSink(func(*Packet) { deliveredAt = append(deliveredAt, loop.Now()) })

	script := NewScenarioScript(loop)
	script.Handover(25*sim.Millisecond, tb, stubOpps{period: 2 * sim.Millisecond}, "wifi")

	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < 5; i++ {
			tb.Send(&Packet{Size: MTU})
		}
	})
	loop.Run()
	script.Finish(loop.Now())

	// Old cadence at 10/20 ms; the pending 30 ms opportunity is discarded
	// at handover and the remaining packets ride the 2 ms cadence.
	want := []sim.Time{
		10 * sim.Millisecond, 20 * sim.Millisecond,
		26 * sim.Millisecond, 28 * sim.Millisecond, 30 * sim.Millisecond,
	}
	if len(deliveredAt) != len(want) {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
	for i := range want {
		if deliveredAt[i] != want[i] {
			t.Fatalf("delivered at %v, want %v", deliveredAt, want)
		}
	}
	if tr := script.Transitions(); len(tr) != 1 || tr[0].Label != "handover-wifi" || tr[0].At != 25*sim.Millisecond {
		t.Fatalf("transitions = %+v", script.Transitions())
	}
}

// TestSwapQdiscHoldRespectsNewAdmission verifies that DrainHold re-enqueues
// the backlog in FIFO order through the new discipline's admission law: a
// smaller bound tail-drops the excess, keeping the oldest packets.
func TestSwapQdiscHoldRespectsNewAdmission(t *testing.T) {
	loop := sim.NewLoop()
	r := NewRateBox(loop, 1_000_000, NewDropTail(0, 0))
	var got []*Packet
	r.SetSink(collect(&got))

	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < 10; i++ {
			r.Send(&Packet{Size: MTU, Seq: int64(i)})
		}
	})
	loop.Schedule(sim.Millisecond, func(sim.Time) {
		moved, dropped := r.SwapQdisc(NewDropTail(4, 0), DrainHold)
		if moved != 4 || dropped != 5 {
			t.Errorf("SwapQdisc hold: moved=%d dropped=%d, want 4/5", moved, dropped)
		}
	})
	loop.Run()

	// Packet 0 was mid-serialization at the swap; 1..4 survived the hold
	// into the 4-packet queue; 5..9 were tail-dropped by the new bound.
	if len(got) != 5 {
		t.Fatalf("delivered %d packets, want 5", len(got))
	}
	for i, pkt := range got {
		if pkt.Seq != int64(i) {
			t.Fatalf("delivery %d has Seq %d, want %d (FIFO order preserved)", i, pkt.Seq, i)
		}
	}
	if st := r.Stats(); st.Dropped != 5 {
		t.Fatalf("Dropped = %d, want 5", st.Dropped)
	}
}

// TestFQCoDelFlush verifies the deterministic flush walk over DRR buckets
// and that the discipline is reusable (idle lists) afterwards.
func TestFQCoDelFlush(t *testing.T) {
	q := QdiscSpec{Kind: QdiscFQCoDel, Flows: 8}.Build()
	for i := 0; i < 12; i++ {
		q.Enqueue(&Packet{Size: 100, Flow: uint64(i % 4)}, 0)
	}
	var flushed []*Packet
	q.Flush(func(pkt *Packet) { flushed = append(flushed, pkt) })
	if len(flushed) != 12 || q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("flush left len=%d bytes=%d, flushed %d", q.Len(), q.Bytes(), len(flushed))
	}
	if qs := q.QueueStats(); qs.Flushed != 12 {
		t.Fatalf("Flushed = %d, want 12", qs.Flushed)
	}
	// The discipline must be idle and reusable after the flush.
	if q.Dequeue(0) != nil {
		t.Fatal("dequeue after flush returned a packet")
	}
	q.Enqueue(&Packet{Size: 100, Flow: 1}, 0)
	if pkt := q.Dequeue(0); pkt == nil || q.Len() != 0 {
		t.Fatal("fq_codel not reusable after flush")
	}
}

// TestQueueFrontPurgeLedger: RateBox, TraceBox and GateBox share one queue
// front, so a DrainFlush purge accounts the same way on each. A 4-packet
// droptail fills while the box is blocked (a busy transmitter, a distant
// delivery opportunity, a link that is down), and the purge then empties
// it: a qdisc swap for the two links, a link-up for the gate. The box's
// ledger must balance before and after the purge and once the loop drains,
// with Dropped = tail drops + purged, and every pooled packet must be back
// in its pool at the end.
func TestQueueFrontPurgeLedger(t *testing.T) {
	const sent = 7
	swap := func(b Box) int {
		_, dropped := b.(QdiscHolder).SwapQdisc(nil, DrainFlush)
		return dropped
	}
	for _, tc := range []struct {
		name  string
		build func(loop *sim.Loop, q Qdisc) Box
		purge func(b Box) int
	}{
		{"rate", func(loop *sim.Loop, q Qdisc) Box { return NewRateBox(loop, 1_000_000, q) }, swap},
		{"trace", func(loop *sim.Loop, q Qdisc) Box { return NewTraceBox(loop, stubOpps{period: sim.Second}, q) }, swap},
		{"gate", func(loop *sim.Loop, q Qdisc) Box {
			g := NewScriptedGateBox(loop, q)
			g.SetOn(false, DrainHold)
			return g
		}, func(b Box) int {
			_, dropped := b.(*GateBox).SetOn(true, DrainFlush)
			return dropped
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop := sim.NewLoop()
			pool := &PacketPool{}
			q := NewDropTail(4, 0)
			b := tc.build(loop, q)
			b.SetSink(pool.Put)
			balanced := func(when string) BoxStats {
				st := b.Stats()
				if st.Arrived != st.Delivered+st.Dropped+uint64(st.QueueLen) {
					t.Fatalf("%s: Arrived %d != Delivered %d + Dropped %d + QueueLen %d",
						when, st.Arrived, st.Delivered, st.Dropped, st.QueueLen)
				}
				return st
			}
			loop.Schedule(0, func(sim.Time) {
				for i := 0; i < sent; i++ {
					pkt := pool.Get()
					pkt.Size = MTU
					b.Send(pkt)
				}
				if q.Len() != 4 {
					t.Fatalf("droptail holds %d packets, want 4", q.Len())
				}
				tail := q.QueueStats().TailDrops
				if st := balanced("filled"); st.Arrived != sent || st.Dropped != tail {
					t.Fatalf("filled: %+v, want %d arrived and %d tail drops", st, sent, tail)
				}
				if purged := tc.purge(b); purged != 4 {
					t.Fatalf("purged %d packets, want 4", purged)
				}
				if st := balanced("purged"); st.Dropped != tail+4 {
					t.Fatalf("purged: Dropped %d, want %d tail drops + 4 purged", st.Dropped, tail)
				}
			})
			loop.Run()
			if st := balanced("drained"); st.QueueLen != 0 {
				t.Fatalf("drained: %d packets still queued", st.QueueLen)
			}
			if n := pool.Outstanding(); n != 0 {
				t.Fatalf("%d pooled packets outstanding after the loop drained", n)
			}
		})
	}
}
