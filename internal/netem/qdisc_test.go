package netem

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// TestInfiniteNeverDrops: the infinite discipline admits everything and
// reports exact FIFO order and telemetry.
func TestInfiniteNeverDrops(t *testing.T) {
	q := NewDropTail(0, 0)
	const n = 10_000
	for i := 0; i < n; i++ {
		if !q.Enqueue(&Packet{Size: 1, Seq: int64(i)}, sim.Time(i)) {
			t.Fatalf("infinite queue rejected packet %d", i)
		}
	}
	if q.Len() != n || q.QueueStats().Drops() != 0 {
		t.Fatalf("Len=%d Drops=%d", q.Len(), q.QueueStats().Drops())
	}
	for i := 0; i < n; i++ {
		p := q.Dequeue(sim.Time(n))
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("dequeue %d returned %v", i, p)
		}
	}
	qs := q.QueueStats()
	if qs.Enqueued != n || qs.Dequeued != n || qs.MaxLen != n {
		t.Fatalf("queue stats = %+v", qs)
	}
}

// TestQueueStatsSojourn: sojourn summary fields and the attached
// accumulator agree, and record delivered packets only.
func TestQueueStatsSojourn(t *testing.T) {
	q := NewDropTail(0, 0)
	acc := stats.NewAccumulator()
	q.QueueStats().RecordSojourn(acc)
	q.Enqueue(&Packet{Size: 1}, 10*sim.Millisecond)
	q.Enqueue(&Packet{Size: 1}, 20*sim.Millisecond)
	q.Dequeue(30 * sim.Millisecond) // sojourn 20ms
	q.Dequeue(90 * sim.Millisecond) // sojourn 70ms
	qs := q.QueueStats()
	if qs.SojournCount != 2 || qs.SojournSum != 90*sim.Millisecond || qs.SojournMax != 70*sim.Millisecond {
		t.Fatalf("sojourn summary = %+v", qs)
	}
	if qs.MeanSojourn() != 45*sim.Millisecond {
		t.Fatalf("mean sojourn = %v", qs.MeanSojourn())
	}
	s := acc.Sample()
	if acc.Len() != 2 || s.Max() != 70 {
		t.Fatalf("accumulator len=%d max=%v", acc.Len(), s.Max())
	}
}

// TestQdiscSpecBuild: every kind builds the matching discipline, defaults
// apply, and unknown kinds fail loudly.
func TestQdiscSpecBuild(t *testing.T) {
	if _, ok := (QdiscSpec{}).Build().(*DropTail); !ok {
		t.Fatal("zero spec did not build droptail")
	}
	if _, ok := (QdiscSpec{Kind: QdiscInfinite}).Build().(*DropTail); !ok {
		t.Fatal("infinite spec did not build DropTail")
	}
	cd, ok := QdiscSpec{Kind: QdiscCoDel}.Build().(*CoDel)
	if !ok {
		t.Fatal("codel spec did not build CoDel")
	}
	if cd.law.target != DefaultCoDelTarget || cd.law.interval != DefaultCoDelInterval {
		t.Fatalf("codel defaults = %v/%v", cd.law.target, cd.law.interval)
	}
	got := QdiscSpec{Kind: QdiscCoDel, Target: 10 * sim.Millisecond, Interval: 200 * sim.Millisecond}.Build().(*CoDel)
	if got.law.target != 10*sim.Millisecond || got.law.interval != 200*sim.Millisecond {
		t.Fatalf("codel params = %v/%v", got.law.target, got.law.interval)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown qdisc kind did not panic")
		}
	}()
	QdiscSpec{Kind: "red"}.Build()
}

func TestQdiscSpecString(t *testing.T) {
	cases := map[string]QdiscSpec{
		"droptail":         {},
		"droptail-32p":     {Packets: 32},
		"infinite":         {Kind: QdiscInfinite},
		"codel":            {Kind: QdiscCoDel},
		"codel-t10ms":      {Kind: QdiscCoDel, Target: 10 * sim.Millisecond},
		"codel-i50ms":      {Kind: QdiscCoDel, Interval: 50 * sim.Millisecond},
		"droptail-8p-900B": {Packets: 8, Bytes: 900},
	}
	for want, spec := range cases {
		if got := spec.String(); got != want {
			t.Fatalf("QdiscSpec%+v.String() = %q, want %q", spec, got, want)
		}
	}
}

// TestCoDelBelowTargetNeverDrops: a queue whose sojourn stays under target
// behaves exactly like an infinite FIFO.
func TestCoDelBelowTargetNeverDrops(t *testing.T) {
	q := QdiscSpec{Kind: QdiscCoDel}.Build()
	now := sim.Time(0)
	for i := 0; i < 1000; i++ {
		q.Enqueue(&Packet{Size: MTU, Seq: int64(i)}, now)
		p := q.Dequeue(now + 2*sim.Millisecond) // 2ms sojourn < 5ms target
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("dequeue %d returned %v", i, p)
		}
		now += 3 * sim.Millisecond
	}
	if n := q.QueueStats().Drops(); n != 0 {
		t.Fatalf("drops below target: %d", n)
	}
}

// TestCoDelEntersAndExitsDropping: sustained above-target sojourn must
// start dropping only after a full interval, and draining the standing
// queue must end the dropping state.
func TestCoDelEntersAndExitsDropping(t *testing.T) {
	q := QdiscSpec{Kind: QdiscCoDel}.Build().(*CoDel)
	// Build a standing queue: 100 packets enqueued at t=0.
	for i := 0; i < 100; i++ {
		q.Enqueue(&Packet{Size: MTU, Seq: int64(i)}, 0)
	}
	// Dequeue one packet every 10ms: sojourn is always >= 10ms > target.
	now := 10 * sim.Millisecond
	var firstDropAt sim.Time
	delivered := 0
	for q.Len() > 0 {
		before := q.QueueStats().AQMDrops
		if p := q.Dequeue(now); p != nil {
			delivered++
		}
		if q.QueueStats().AQMDrops > before && firstDropAt == 0 {
			firstDropAt = now
		}
		now += 10 * sim.Millisecond
	}
	if firstDropAt == 0 {
		t.Fatal("standing queue never triggered the control law")
	}
	// The first drop cannot precede one full interval above target.
	if firstDropAt < DefaultCoDelInterval {
		t.Fatalf("first drop at %v, before a full interval (%v)", firstDropAt, DefaultCoDelInterval)
	}
	if delivered+int(q.QueueStats().AQMDrops) != 100 {
		t.Fatalf("delivered %d + aqm drops %d != 100", delivered, q.QueueStats().AQMDrops)
	}
	// Queue drained: the state machine must have left dropping mode.
	if q.state.dropping {
		t.Fatal("dropping state survived an empty queue")
	}
}

// TestCoDelGoldenTrace pins the control law's exact drop sequence on a
// fixed arrival/departure schedule, so the RFC 8289 transcription can
// never drift silently: any change to the target/interval arithmetic, the
// square-root spacing, or the count decay shows up as a diff against this
// golden sequence (regenerate deliberately if the law is changed on
// purpose).
//
// Schedule: 400 packets arrive at 2ms spacing; the link dequeues one
// packet every 5ms — a 2.5x overload, so the standing queue grows without
// bound and CoDel ramps its drop rate along the interval/sqrt(count)
// schedule.
func TestCoDelGoldenTrace(t *testing.T) {
	q := QdiscSpec{Kind: QdiscCoDel}.Build() // RFC defaults: target 5ms, interval 100ms
	arrivals := 0
	var events []string
	for tick := sim.Time(0); arrivals < 400 || q.Len() > 0; tick += sim.Millisecond {
		if arrivals < 400 && tick%(2*sim.Millisecond) == 0 {
			q.Enqueue(&Packet{Size: MTU, Seq: int64(arrivals)}, tick)
			arrivals++
		}
		if tick%(5*sim.Millisecond) == 0 && q.Len() > 0 {
			before := q.QueueStats().AQMDrops
			p := q.Dequeue(tick)
			if d := q.QueueStats().AQMDrops - before; d > 0 {
				events = append(events, fmt.Sprintf("t=%v drops=%d", tick, d))
			}
			_ = p
		}
	}
	// First drop at t=110ms: the head first shows sojourn >= target at
	// t=10ms, arming firstAboveTime = 10ms + interval; the next dequeue at
	// or past that instant (t=110ms) drops. Successive gaps then shrink —
	// 100, 75, 55, 50, 45, 40, 40, 35, ... ms — the interval/sqrt(count)
	// ramp.
	golden := []string{
		"t=110ms drops=1",
		"t=210ms drops=1",
		"t=285ms drops=1",
		"t=340ms drops=1",
		"t=390ms drops=1",
		"t=435ms drops=1",
		"t=475ms drops=1",
		"t=515ms drops=1",
		"t=550ms drops=1",
		"t=585ms drops=1",
		"t=615ms drops=1",
		"t=645ms drops=1",
		"t=675ms drops=1",
		"t=700ms drops=1",
		"t=730ms drops=1",
		"t=755ms drops=1",
		"t=780ms drops=1",
		"t=805ms drops=1",
		"t=825ms drops=1",
		"t=850ms drops=1",
	}
	if len(events) < len(golden) {
		t.Fatalf("drop sequence too short: %d events\n%v", len(events), events)
	}
	for i, want := range golden {
		if events[i] != want {
			t.Fatalf("drop event %d = %q, want %q\nfull sequence: %v", i, events[i], want, events[:min(len(events), 25)])
		}
	}
}

// TestCoDelDropSpacingDecreases: while the overload persists, successive
// drop gaps must follow the interval/sqrt(count) schedule, i.e. shrink.
func TestCoDelDropSpacingDecreases(t *testing.T) {
	q := QdiscSpec{Kind: QdiscCoDel}.Build()
	var dropTimes []sim.Time
	arrivals := 0
	for tick := sim.Time(0); tick < 2*sim.Second; tick += sim.Millisecond {
		// Permanent 3x overload.
		q.Enqueue(&Packet{Size: MTU, Seq: int64(arrivals)}, tick)
		arrivals++
		if tick%(3*sim.Millisecond) == 0 && q.Len() > 0 {
			before := q.QueueStats().AQMDrops
			q.Dequeue(tick)
			if q.QueueStats().AQMDrops > before {
				dropTimes = append(dropTimes, tick)
			}
		}
	}
	if len(dropTimes) < 8 {
		t.Fatalf("only %d drops under permanent overload", len(dropTimes))
	}
	// Compare early gap vs late gap: the square-root law must have
	// tightened the spacing substantially.
	early := dropTimes[1] - dropTimes[0]
	late := dropTimes[len(dropTimes)-1] - dropTimes[len(dropTimes)-2]
	if late >= early {
		t.Fatalf("drop spacing did not tighten: early gap %v, late gap %v", early, late)
	}
}

// TestCoDelPhysicalBound: the optional packet bound tail-drops like
// droptail, separately accounted from control-law drops.
func TestCoDelPhysicalBound(t *testing.T) {
	q := QdiscSpec{Kind: QdiscCoDel, Packets: 2}.Build()
	q.Enqueue(&Packet{Size: 1}, 0)
	q.Enqueue(&Packet{Size: 1}, 0)
	if q.Enqueue(&Packet{Size: 1}, 0) {
		t.Fatal("enqueue over physical bound succeeded")
	}
	qs := q.QueueStats()
	if qs.TailDrops != 1 || qs.AQMDrops != 0 {
		t.Fatalf("queue stats = %+v", qs)
	}
}

// TestGateBoxOffPeriodBacklogOrdering: packets held across an outage are
// released strictly in arrival order at the restore instant, with batch
// and per-packet sinks agreeing.
func TestGateBoxOffPeriodBacklogOrdering(t *testing.T) {
	for _, useBatch := range []bool{false, true} {
		name := "per-packet"
		if useBatch {
			name = "batch"
		}
		t.Run(name, func(t *testing.T) {
			loop := sim.NewLoop()
			g := NewScriptedGateBox(loop, nil)
			outage(loop, g, 100*sim.Millisecond, 200*sim.Millisecond)
			var seqs []int64
			var at []sim.Time
			g.SetSink(func(p *Packet) { seqs = append(seqs, p.Seq); at = append(at, loop.Now()) })
			if useBatch {
				g.SetBatchSink(func(pkts []*Packet) {
					for _, p := range pkts {
						seqs = append(seqs, p.Seq)
						at = append(at, loop.Now())
					}
				})
			}
			// Interleave singles and a train during the outage.
			loop.Schedule(110*sim.Millisecond, func(sim.Time) { g.Send(&Packet{Size: 1, Seq: 0}) })
			loop.Schedule(120*sim.Millisecond, func(sim.Time) {
				g.SendBatch([]*Packet{{Size: 1, Seq: 1}, {Size: 1, Seq: 2}})
			})
			loop.Schedule(130*sim.Millisecond, func(sim.Time) { g.Send(&Packet{Size: 1, Seq: 3}) })
			loop.RunUntil(400 * sim.Millisecond)
			if len(seqs) != 4 {
				t.Fatalf("released %d packets, want 4", len(seqs))
			}
			for i, s := range seqs {
				if s != int64(i) {
					t.Fatalf("release order %v, want 0,1,2,3", seqs)
				}
				if at[i] != 200*sim.Millisecond {
					t.Fatalf("packet %d released at %v, want 200ms", i, at[i])
				}
			}
		})
	}
}

// TestTraceBoxCoDelShedsStandingQueue: a trace-driven link with a CoDel
// queue under sustained overload must hold sojourn near the target by
// dropping, where droptail would let delay grow with the backlog.
func TestTraceBoxCoDelShedsStandingQueue(t *testing.T) {
	run := func(q Qdisc) (meanSojourn sim.Time, drops uint64) {
		loop := sim.NewLoop()
		// One opportunity per 10ms = 1.2 Mbit/s for MTU packets.
		opps := &fixedOpps{times: []sim.Time{10 * sim.Millisecond}}
		tb := NewTraceBox(loop, opps, q)
		tb.SetSink(func(*Packet) {})
		// 4x overload for 2 simulated seconds.
		for i := 0; i < 800; i++ {
			loop.Schedule(sim.Time(i)*2500*sim.Microsecond, func(sim.Time) {
				tb.Send(&Packet{Size: MTU})
			})
		}
		loop.Run()
		qs := q.QueueStats()
		return qs.MeanSojourn(), qs.Drops()
	}
	dtMean, dtDrops := run(NewDropTail(0, 0))
	cdMean, cdDrops := run(QdiscSpec{Kind: QdiscCoDel}.Build())
	if dtDrops != 0 {
		t.Fatalf("infinite queue dropped %d", dtDrops)
	}
	if cdDrops == 0 {
		t.Fatal("codel never dropped under 4x overload")
	}
	// The flood is open-loop (no sender response to drops), so CoDel can
	// only shed, not control; well under half the uncontrolled delay is
	// the expected effect size here.
	if cdMean >= dtMean/2 {
		t.Fatalf("codel mean sojourn %v not well below infinite %v", cdMean, dtMean)
	}
}
