package netem

import "repro/internal/sim"

// GateBox models an intermittent link (Mahimahi's mm-onoff extension) on a
// scripted timeline: while the link is on, packets pass through
// immediately; while it is off, arriving packets are held in a queue
// discipline. When the link comes back on, held packets are released in
// order; the qdisc's drop law runs at that drain, so a CoDel outage queue
// sheds the stale backlog instead of replaying it.
//
// The gate schedules no flips of its own: state changes come only from
// SetOn, the mutation a ScenarioScript drives for outage windows pinned to
// exact virtual instants.
type GateBox struct {
	txQueue
	isOn bool
}

// NewScriptedGateBox returns a gate that starts on and never flips by
// itself: link-down and link-up come exclusively from SetOn, so a
// ScenarioScript owns the outage timeline. queue holds packets arriving
// while the link is down (nil = unbounded).
func NewScriptedGateBox(loop *sim.Loop, queue Qdisc) *GateBox {
	return &GateBox{txQueue: newTxQueue(loop, queue), isOn: true}
}

// SetOn forces the gate's state — the scripted link flap. Turning the link
// on releases the outage backlog per policy: DrainHold replays it
// downstream in order (the mm-onoff restore behavior — the modem buffered
// through the outage), DrainFlush recycles it with drop accounting (the
// buffer was purged; transports must retransmit). Turning the link off, or
// setting the current state again, moves no packets. Returns how many
// backlogged packets were released downstream and how many were dropped.
func (g *GateBox) SetOn(on bool, policy DrainPolicy) (moved, dropped int) {
	if on == g.isOn {
		return 0, 0
	}
	g.isOn = on
	if !on {
		return 0, 0
	}
	if policy == DrainFlush {
		return 0, g.purge(g.queue)
	}
	return g.drainBacklog(), 0
}

// On reports whether the link is currently passing traffic.
func (g *GateBox) On() bool { return g.isOn }

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
	if !g.isOn {
		g.admit(pkts)
		return
	}
	for _, pkt := range pkts {
		g.stats.arrive(pkt)
	}
	g.emit(pkts)
}
