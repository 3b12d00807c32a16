package netem

import (
	"fmt"

	"repro/internal/sim"
)

// GateBox models an intermittent link (Mahimahi's mm-onoff extension):
// the link alternates between on-periods, during which packets pass
// through immediately, and off-periods, during which arriving packets are
// held in a queue discipline. When the link comes back on, held packets
// are released in order; the qdisc's drop law runs at that drain, so a
// CoDel outage queue sheds the stale backlog instead of replaying it.
//
// Period lengths can be jittered by a seeded RNG so that on/off phases do
// not align across runs unless desired.
//
// A scripted gate (NewScriptedGateBox) schedules no flips of its own:
// state changes come only from SetOn, the mutation a ScenarioScript drives
// for outage windows pinned to exact virtual instants.
type GateBox struct {
	port
	loop     *sim.Loop
	on       sim.Time
	off      sim.Time
	jitter   float64 // fraction of period length, 0 = strictly periodic
	rng      *sim.Rand
	isOn     bool
	scripted bool // state changes come from SetOn, never self-scheduled
	queue    Qdisc
	carry    qdiscCarry
	flipFn   sim.Handler // flip pre-bound once, so periods schedule closure-free
}

// NewGateBox returns an intermittent-link box that starts in the on state.
// on and off are the nominal period lengths; jitter (in [0,1)) randomizes
// each period's length by ±jitter. queue is the discipline holding packets
// during off periods (nil = unbounded).
func NewGateBox(loop *sim.Loop, on, off sim.Time, jitter float64, rng *sim.Rand, queue Qdisc) *GateBox {
	if on <= 0 || off < 0 {
		panic(fmt.Sprintf("netem: invalid gate periods on=%v off=%v", on, off))
	}
	if jitter > 0 && rng == nil {
		panic("netem: GateBox jitter requires an RNG")
	}
	if queue == nil {
		queue = NewDropTail(0, 0)
	}
	g := &GateBox{loop: loop, on: on, off: off, jitter: jitter, rng: rng, isOn: true, queue: queue}
	g.flipFn = g.flip
	if off > 0 {
		g.loop.Schedule(g.period(on), g.flipFn)
	}
	return g
}

// NewScriptedGateBox returns a gate that starts on and never flips by
// itself: link-down and link-up come exclusively from SetOn, so a
// ScenarioScript owns the outage timeline. queue holds packets arriving
// while the link is down (nil = unbounded).
func NewScriptedGateBox(loop *sim.Loop, queue Qdisc) *GateBox {
	if queue == nil {
		queue = NewDropTail(0, 0)
	}
	g := &GateBox{loop: loop, isOn: true, scripted: true, queue: queue}
	g.flipFn = g.flip
	return g
}

// SetOn forces the gate's state — the scripted link flap. Turning the link
// on releases the outage backlog per policy: DrainHold replays it
// downstream in order (the mm-onoff restore behavior — the modem buffered
// through the outage), DrainFlush recycles it with drop accounting (the
// buffer was purged; transports must retransmit). Turning the link off, or
// setting the current state again, moves no packets. Returns how many
// backlogged packets were released downstream and how many were dropped.
func (g *GateBox) SetOn(on bool, policy DrainPolicy) (moved, dropped int) {
	if !g.scripted {
		// A periodic gate's timeline belongs to its own flip schedule;
		// mixing in scripted state changes would silently desynchronize it.
		panic("netem: GateBox.SetOn on a periodic gate (use NewScriptedGateBox)")
	}
	if on == g.isOn {
		return 0, 0
	}
	g.isOn = on
	if !on {
		return 0, 0
	}
	if policy == DrainFlush {
		g.queue.Flush(func(pkt *Packet) {
			dropped++
			pkt.Recycle()
		})
		g.carry.drops += uint64(dropped)
		return 0, dropped
	}
	moved = g.drainBacklog()
	return moved, 0
}

// On reports whether the link is currently passing traffic.
func (g *GateBox) On() bool { return g.isOn }

// Queue exposes the box's queue discipline, for telemetry.
func (g *GateBox) Queue() Qdisc { return g.queue }

func (g *GateBox) period(nominal sim.Time) sim.Time {
	if g.jitter <= 0 {
		return nominal
	}
	return g.rng.Jitter(nominal, g.jitter)
}

func (g *GateBox) flip(sim.Time) {
	g.isOn = !g.isOn
	if g.isOn {
		g.drainBacklog()
		g.loop.Schedule(g.period(g.on), g.flipFn)
	} else {
		g.loop.Schedule(g.period(g.off), g.flipFn)
	}
}

// drainBacklog releases everything held during an outage, in order, and
// reports how many packets survived the qdisc's drop law to go downstream.
// The backlog leaves at one instant with nothing interleaved, so it
// continues downstream as a single train.
func (g *GateBox) drainBacklog() int {
	now := g.loop.Now()
	drain := g.scratch
	for pkt := g.queue.Dequeue(now); pkt != nil; pkt = g.queue.Dequeue(now) {
		drain = append(drain, pkt)
	}
	g.emitScratch(drain)
	return len(drain)
}

// Send implements Box.
func (g *GateBox) Send(pkt *Packet) { g.SendBatch(g.one(pkt)) }

// SendBatch implements Box: an on-state train passes through as a train;
// an off-state train is queued packet-by-packet (drops shorten it).
func (g *GateBox) SendBatch(pkts []*Packet) {
	for _, pkt := range pkts {
		g.stats.arrive(pkt)
	}
	if g.isOn {
		g.emit(pkts)
		return
	}
	now := g.loop.Now()
	for _, pkt := range pkts {
		g.queue.Enqueue(pkt, now)
	}
}

// Stats implements Box: queue gauges and drop counts are read through from
// the qdisc.
func (g *GateBox) Stats() BoxStats { return g.carry.readThrough(g.stats, g.queue, nil) }
