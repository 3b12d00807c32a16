package netem

import (
	"repro/internal/sim"
)

// OpportunitySource supplies packet-delivery opportunities. Next returns
// the first opportunity strictly after the given virtual time; sources loop
// forever, so Next always succeeds. internal/trace.Cursor implements this
// interface. The indirection keeps netem free of the trace file format.
type OpportunitySource interface {
	Next(after sim.Time) sim.Time
}

// TraceBox emulates one direction of LinkShell: arriving packets are placed
// in a queue discipline and released only at packet-delivery opportunities
// drawn from the trace. Each opportunity delivers up to one MTU worth of
// the head packet; packets larger than MTU consume multiple opportunities,
// and a packet smaller than MTU consumes a whole opportunity, exactly as in
// Mahimahi.
//
// The qdisc's drop law runs when a packet is committed to the transmitter
// (dequeued at the start of its first opportunity), so a CoDel queue may
// discard several stale packets before an opportunity delivers one.
type TraceBox struct {
	txQueue
	opps   OpportunitySource
	armed  bool
	sentOf int       // bytes of cur already delivered
	timer  sim.Timer // opportunity timer, rearmed across the trace
}

// NewTraceBox returns a trace-driven box. queue is the queue discipline
// bounding the backlog; pass nil for an unbounded (infinite) queue.
func NewTraceBox(loop *sim.Loop, opps OpportunitySource, queue Qdisc) *TraceBox {
	t := &TraceBox{txQueue: newTxQueue(loop, queue), opps: opps}
	t.timer = loop.NewTimer(t.fire)
	return t
}

// SetSource switches the box to a different opportunity source — the
// scripted handover (LTE→wifi: same queue, same backlog, a new delivery
// schedule). A pending opportunity from the old trace is discarded and the
// box re-arms from the new source, so the first post-handover delivery is
// the new trace's first opportunity after the switch instant. A packet
// mid-delivery keeps its progress; its remaining bytes ride the new
// trace's opportunities.
func (t *TraceBox) SetSource(opps OpportunitySource) {
	if opps == nil {
		panic("netem: TraceBox.SetSource with nil source")
	}
	t.opps = opps
	if t.armed {
		t.timer.Stop()
		t.armed = false
	}
	t.arm()
}

// Send implements Box.
func (t *TraceBox) Send(pkt *Packet) { t.SendBatch(t.one(pkt)) }

// SendBatch implements Box: the train is admitted in one pass (qdisc drops
// shorten it) and the opportunity timer is armed once. Delivery stays
// per-opportunity, so a train longer than the current opportunity's capacity
// is split across opportunities exactly as per-packet sends would be.
func (t *TraceBox) SendBatch(pkts []*Packet) {
	t.admit(pkts)
	t.arm()
}

// arm schedules the next delivery opportunity if packets are waiting (or a
// large packet is mid-delivery) and no opportunity is already scheduled.
func (t *TraceBox) arm() {
	if t.armed || (t.cur == nil && t.queue.Len() == 0) {
		return
	}
	t.armed = true
	now := t.loop.Now()
	at := t.opps.Next(now)
	t.timer.Reset(at - now)
}

// fire consumes one delivery opportunity: up to MTU bytes of the head
// packet.
func (t *TraceBox) fire(sim.Time) {
	t.armed = false
	if t.cur == nil {
		// Commit the next packet to the transmitter; the qdisc's drop law
		// runs here, on the virtual clock.
		t.cur = t.queue.Dequeue(t.loop.Now())
		if t.cur == nil {
			return
		}
	}
	remaining := t.cur.Size - t.sentOf
	if remaining > MTU {
		// Large packet: this opportunity moves MTU bytes; more needed.
		t.sentOf += MTU
	} else {
		// Opportunities are distinct instants, so every train leaving a
		// TraceBox is one packet long.
		pkt := t.cur
		t.cur = nil
		t.sentOf = 0
		t.emit(t.one(pkt))
	}
	t.arm()
}
