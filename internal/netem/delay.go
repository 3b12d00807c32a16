package netem

import (
	"fmt"

	"repro/internal/sim"
)

// DelayBox releases every packet exactly one fixed one-way delay after it
// arrives, as DelayShell does (paper §2): "Each packet is released from the
// queue after the user-specified one-way delay, enforcing a fixed per-packet
// delay."
//
// Because the delay is identical for every packet, delivery is FIFO.
//
// Bursts are delivered as packet trains: a run of packets arriving at one
// instant with nothing scheduled in between (see train) shares one delivery
// event and reaches the sink as one batch, so a congestion-window burst
// costs one event instead of one per packet.
type DelayBox struct {
	port
	loop  *sim.Loop
	delay sim.Time
	// open is the train still accepting same-instant appends; mark is the
	// loop's SeqMark right after the train last grew, the adjacency guard.
	open *train
	mark uint64
	// releaseFn is the release method pre-bound once, so each train's
	// delivery event carries the train as the event argument instead of a
	// freshly allocated closure.
	releaseFn sim.ArgHandler
}

// NewDelayBox returns a fixed one-way-delay box. A zero delay degenerates to
// a Wire with one event-loop hop (DelayShell 0 ms in Figure 2).
func NewDelayBox(loop *sim.Loop, delay sim.Time) *DelayBox {
	if delay < 0 {
		panic(fmt.Sprintf("netem: negative delay %v", delay))
	}
	d := &DelayBox{loop: loop, delay: delay}
	d.releaseFn = d.release
	return d
}

// Send implements Box.
func (d *DelayBox) Send(pkt *Packet) { d.SendBatch(d.one(pkt)) }

// SendBatch implements Box: the whole train shares one exit instant, so
// after the first packet (possibly) opens a train the rest append in O(1).
func (d *DelayBox) SendBatch(pkts []*Packet) {
	now := d.loop.Now()
	for _, pkt := range pkts {
		d.stats.arrive(pkt)
		d.stats.QueueLen++
		d.stats.QueueBytes += pkt.Size
		if d.stats.QueueLen > d.stats.MaxQueueLen {
			d.stats.MaxQueueLen = d.stats.QueueLen
		}
		pkt.Sent = now
		d.schedule(pkt, now+d.delay)
	}
}

// schedule joins the packet to the open train when the adjacency guard
// holds (same exit instant, no event scheduled since the last append), and
// otherwise opens a fresh train with its own delivery event.
func (d *DelayBox) schedule(pkt *Packet, exit sim.Time) {
	if d.open != nil && d.open.exit == exit && d.loop.SeqMark() == d.mark {
		d.open.add(pkt)
		return
	}
	t := openTrain(pkt, exit)
	d.open = t
	d.loop.ScheduleArg(d.delay, d.releaseFn, t)
	d.mark = d.loop.SeqMark()
}

// release delivers one train to the sink.
func (d *DelayBox) release(_ sim.Time, arg any) {
	t := arg.(*train)
	if d.open == t {
		d.open = nil
	}
	for _, pkt := range t.pkts {
		d.stats.QueueLen--
		d.stats.QueueBytes -= pkt.Size
	}
	d.emit(t.pkts)
	t.close()
}

// LossBox drops packets according to a pluggable LossModel (Mahimahi's
// mm-loss extension; Bernoulli by default). Drops are drawn from a
// dedicated sim.Rand stream so loss patterns are reproducible, and the
// model is swappable mid-run (SetModel) for scripted loss steps —
// a ScenarioScript mutation that takes effect from the next packet.
type LossBox struct {
	port
	model LossModel
	rng   *sim.Rand
}

// NewLossBox returns a box that drops packets independently with
// probability prob in [0, 1] (a Bernoulli model).
func NewLossBox(prob float64, rng *sim.Rand) *LossBox {
	return &LossBox{model: NewBernoulli(prob), rng: rng}
}

// NewLossBoxModel returns a box dropping per the given model.
func NewLossBoxModel(model LossModel, rng *sim.Rand) *LossBox {
	if model == nil {
		panic("netem: NewLossBoxModel with nil model")
	}
	return &LossBox{model: model, rng: rng}
}

// SetModel replaces the loss model from the next packet on. The RNG stream
// continues where it left off — position in the stream is determined by
// the packets already judged, so a scripted swap is deterministic.
func (l *LossBox) SetModel(model LossModel) {
	if model == nil {
		panic("netem: LossBox.SetModel with nil model")
	}
	l.model = model
}

// Send implements Box.
func (l *LossBox) Send(pkt *Packet) { l.SendBatch(l.one(pkt)) }

// SendBatch implements Box. Loss draws happen per packet in train order —
// exactly the stream a per-packet Send sequence would consume — and the
// surviving (possibly shortened) run continues as one train.
func (l *LossBox) SendBatch(pkts []*Packet) {
	var surv []*Packet
	forked := false
	for i, pkt := range pkts {
		l.stats.arrive(pkt)
		switch {
		case l.model.Drop(l.rng):
			if !forked {
				surv, forked = l.fork(pkts, i), true
			}
			l.stats.Dropped++
			pkt.Recycle()
		case forked:
			surv = append(surv, pkt)
		}
	}
	if !forked {
		l.emit(pkts)
		return
	}
	l.emitScratch(surv)
}

// RateBox models a store-and-forward link with a fixed bit rate: each packet
// occupies the transmitter for size*8/rate seconds, and packets queue behind
// one another. It is the non-trace alternative to TraceBox for constant-rate
// links, and is used by the ablation benches to validate TraceBox's
// constant-rate traces against first principles.
//
// A train entering the box is admitted to the qdisc in one pass, then the
// transmitter is started once; a single rearmable timer walks the
// serialization schedule. Each packet's exit time is computed when it is
// committed to the transmitter (exit = start + size*8/rate, with start the
// previous packet's exit while the link is busy) — identical timing to an
// admission-time schedule for FIFO queues, but correct under disciplines
// that drop at dequeue (CoDel), where an admission-time schedule would
// leave the link idling through the dropped packets' slots.
type RateBox struct {
	txQueue
	bps     int64 // bits per second
	sending bool
	timer   sim.Timer // finish timer, rearmed across the schedule
}

// txQueue is the part of a link box RateBox and TraceBox share: the egress
// port, the queue discipline in front of one transmitter, and the qdisc
// history carried across scripted swaps.
type txQueue struct {
	port
	loop  *sim.Loop
	queue Qdisc
	cur   *Packet // packet committed to the transmitter
	carry qdiscCarry
}

// newTxQueue fronts a transmitter with queue; nil means an unbounded
// (infinite) droptail queue.
func newTxQueue(loop *sim.Loop, queue Qdisc) txQueue {
	if queue == nil {
		queue = NewDropTail(0, 0)
	}
	return txQueue{loop: loop, queue: queue}
}

// Queue exposes the box's queue discipline, for telemetry.
func (q *txQueue) Queue() Qdisc { return q.queue }

// admit queues a train; the qdisc tail-drops (and recycles) on overflow.
func (q *txQueue) admit(pkts []*Packet) {
	now := q.loop.Now()
	for _, pkt := range pkts {
		q.stats.arrive(pkt)
		q.queue.Enqueue(pkt, now)
	}
}

// SwapQdisc atomically replaces the box's queue discipline — the scripted
// AQM hot-swap. The packet committed to the transmitter is left to finish.
// The old backlog is flushed per policy: DrainHold re-enqueues every packet
// into the new discipline at the swap instant in FIFO order (sojourn
// restarts; the new discipline's admission law may tail-drop), DrainFlush
// recycles it with drop accounting. Returns how many backlogged packets
// moved into the new queue and how many were dropped at the boundary.
func (q *txQueue) SwapQdisc(next Qdisc, policy DrainPolicy) (moved, dropped int) {
	if next == nil {
		next = NewDropTail(0, 0)
	}
	old := q.queue
	q.queue = next
	now := q.loop.Now()
	var flushDrops uint64
	old.Flush(func(pkt *Packet) {
		switch policy {
		case DrainHold:
			if next.Enqueue(pkt, now) {
				moved++
			} else {
				dropped++ // the new discipline's admission law rejected it
			}
		default: // DrainFlush
			dropped++
			flushDrops++
			pkt.Recycle()
		}
	})
	q.carry.absorb(old.QueueStats(), flushDrops)
	return moved, dropped
}

// Stats implements Box: queue gauges and drop counts are read through from
// the qdisc, with the packet on the transmitter counted as queued.
func (q *txQueue) Stats() BoxStats { return q.carry.readThrough(q.stats, q.queue, q.cur) }

// qdiscCarry preserves a box's cumulative telemetry across scripted qdisc
// swaps: when SwapQdisc discards the old discipline, its drop count and
// backlog high-water mark fold in here so BoxStats stays monotone.
type qdiscCarry struct {
	drops  uint64
	maxLen int
}

// absorb folds a retiring qdisc's counters into the carry, plus any
// flush-policy drops the swap itself caused.
func (c *qdiscCarry) absorb(qs *QueueStats, flushDrops uint64) {
	c.drops += qs.Drops() + flushDrops
	if qs.MaxLen > c.maxLen {
		c.maxLen = qs.MaxLen
	}
}

// readThrough completes a queue-owning box's BoxStats from its current
// qdisc and the carried history, so no path through the box can disagree
// with the qdisc's own counters. cur, if not nil, is the packet in service:
// it counts toward the instantaneous backlog, and since the qdisc's
// enqueue-time high-water mark never saw it, the gauge pair is kept
// consistent (max >= current).
func (c *qdiscCarry) readThrough(st BoxStats, q Qdisc, cur *Packet) BoxStats {
	qs := q.QueueStats()
	st.Dropped = qs.Drops() + c.drops
	st.QueueLen = q.Len()
	st.QueueBytes = q.Bytes()
	st.MaxQueueLen = max(qs.MaxLen, c.maxLen)
	if cur != nil {
		st.QueueLen++
		st.QueueBytes += cur.Size
	}
	st.MaxQueueLen = max(st.MaxQueueLen, st.QueueLen)
	return st
}

// NewRateBox returns a fixed-rate box. bitsPerSec must be positive. queue
// is the queue discipline bounding the backlog; pass nil for an unbounded
// (infinite) queue.
func NewRateBox(loop *sim.Loop, bitsPerSec int64, queue Qdisc) *RateBox {
	if bitsPerSec <= 0 {
		panic(fmt.Sprintf("netem: non-positive rate %d", bitsPerSec))
	}
	r := &RateBox{txQueue: newTxQueue(loop, queue), bps: bitsPerSec}
	r.timer = loop.NewTimer(r.finish)
	return r
}

// Rate reports the configured bit rate.
func (r *RateBox) Rate() int64 { return r.bps }

// SetRate changes the link rate — the scripted rate step. The packet
// occupying the transmitter finishes at the exit time its serialization
// already committed to (the store-and-forward analogue of a modem
// retraining after the bit in flight); every later packet serializes at
// the new rate.
func (r *RateBox) SetRate(bitsPerSec int64) {
	if bitsPerSec <= 0 {
		panic(fmt.Sprintf("netem: non-positive rate %d", bitsPerSec))
	}
	r.bps = bitsPerSec
}

// transmitTime is the serialization delay of a packet at the box's rate.
func (r *RateBox) transmitTime(size int) sim.Time {
	return sim.Time(int64(size) * 8 * int64(sim.Second) / r.bps)
}

// Send implements Box.
func (r *RateBox) Send(pkt *Packet) { r.SendBatch(r.one(pkt)) }

// SendBatch implements Box: the whole train is admitted in one pass, then
// the transmitter is started once.
func (r *RateBox) SendBatch(pkts []*Packet) {
	r.admit(pkts)
	if !r.sending {
		r.startNext()
	}
}

// startNext commits the next packet to the transmitter. The qdisc's drop
// law runs here: startNext is only ever called when the transmitter is
// idle (from SendBatch) or has just finished (from finish), so the dequeue
// instant is the packet's serialization start.
func (r *RateBox) startNext() {
	pkt := r.queue.Dequeue(r.loop.Now())
	if pkt == nil {
		r.sending = false
		return
	}
	r.sending = true
	r.cur = pkt
	r.timer.Reset(r.transmitTime(pkt.Size))
}

// finish completes the current packet's serialization and starts the next.
// Serialization exits are distinct instants, so every train leaving a
// RateBox is one packet long.
func (r *RateBox) finish(sim.Time) {
	pkt := r.cur
	r.cur = nil
	r.emit(r.one(pkt))
	r.startNext()
}
