package netem

import (
	"repro/internal/sim"
)

// PIE defaults per RFC 8033 §4–5 (QDELAY_REF, T_UPDATE).
const (
	DefaultPIETarget  = 15 * sim.Millisecond
	DefaultPIETUpdate = 15 * sim.Millisecond
)

// PIE controller constants (RFC 8033 §4.2): the proportional and integral
// gains, in 1/s, and the burst allowance (MAX_BURST).
const (
	pieAlpha    = 0.125
	pieBeta     = 1.25
	pieMaxBurst = 150 * sim.Millisecond
	// pieSeed drives the random-drop draws. Any fixed value works:
	// determinism comes from the stream being a pure function of the seed
	// and the arrival schedule.
	pieSeed = 0x8033
)

// PIE is the Proportional Integral controller Enhanced AQM of RFC 8033,
// the discipline Linux and DOCSIS deploy where CoDel's per-packet
// timestamps are too costly. Where CoDel judges packets at dequeue by their
// measured sojourn, PIE drops (or CE-marks) probabilistically at enqueue:
// a drop probability p is recomputed every TUpdate from the current queue
// delay and its trend,
//
//	p += alpha*(qdelay - target) + beta*(qdelay - qdelayOld)
//
// scaled down while p is small (the RFC's auto-tuning table) so the
// controller stays stable near zero, and decayed exponentially when the
// queue is idle. A burst allowance suppresses drops for the first 150 ms
// (MAX_BURST) of standing queue, tolerating slow-start transients.
//
// The implementation runs entirely on the virtual clock: the periodic
// update is applied lazily from Enqueue/Dequeue, catching up one TUpdate
// step at a time, and the queue delay estimate is the current waiting time
// of the head packet (the RFC's timestamp option — exact here, since
// enqueue stamps are exact). Random drops come from a private
// deterministic stream consumed once per judged enqueue, so a fixed
// arrival schedule yields a fixed drop/mark sequence — the same
// reproducibility contract CoDel's deterministic law gives for free.
//
// In ECN mode (RFC 8033 §5.1) a drop decision on an ECT packet CE-marks it
// and admits it instead, at any drop probability. Linux's sch_pie drops
// even ECT packets above 10%, on the theory that a probability that high
// means marking is failing to control the queue; RFC 8033 §5.1 attaches no
// such ceiling, and none is applied here: during a deep slow-start
// transient the drain of the standing queue alone can push the controller
// past 10% for hundreds of milliseconds, and dropping ECT packets there
// defeats the point of the marking study.
type PIE struct {
	qdiscBase
	target     sim.Time
	tUpdate    sim.Time
	maxPackets int
	maxBytes   int
	ecn        bool
	rng        *sim.Rand

	// Controller state, named as in RFC 8033.
	prob           float64  // current drop probability
	qdelayOld      sim.Time // queue-delay estimate at the previous update
	burstAllowance sim.Time
	nextUpdate     sim.Time
	started        bool
}

// advance lazily applies every TUpdate probability update due by now. The
// first call arms the update clock and the burst allowance, mirroring the
// RFC's initialization on queue activation.
func (q *PIE) advance(now sim.Time) {
	if !q.started {
		q.started = true
		q.burstAllowance = pieMaxBurst
		q.nextUpdate = now + q.tUpdate
		return
	}
	for now >= q.nextUpdate {
		q.update(q.nextUpdate)
		q.nextUpdate += q.tUpdate
	}
}

// update recomputes the drop probability at virtual instant at (RFC 8033
// §4.2) and maintains the burst allowance (§4.4).
func (q *PIE) update(at sim.Time) {
	// Queue-delay estimate: the head packet's waiting time so far. Exact
	// on the virtual clock, and zero when the queue is empty.
	var qdelay sim.Time
	if head := q.ring.peek(); head != nil {
		qdelay = at - head.enq
		if qdelay < 0 {
			qdelay = 0
		}
	}
	if q.burstAllowance > 0 {
		q.burstAllowance -= q.tUpdate
		if q.burstAllowance < 0 {
			q.burstAllowance = 0
		}
	}
	p := pieAlpha*(qdelay-q.target).Seconds() + pieBeta*(qdelay-q.qdelayOld).Seconds()
	// Auto-tuning (§4.2): shrink the adjustment while the probability is
	// small so the controller converges without oscillating around zero.
	switch {
	case q.prob < 0.000001:
		p /= 2048
	case q.prob < 0.00001:
		p /= 512
	case q.prob < 0.0001:
		p /= 128
	case q.prob < 0.001:
		p /= 32
	case q.prob < 0.01:
		p /= 8
	case q.prob < 0.1:
		p /= 2
	}
	q.prob += p
	// Exponential decay while the queue is idle (§4.2).
	if qdelay == 0 && q.qdelayOld == 0 {
		q.prob *= 0.98
	}
	if q.prob < 0 {
		q.prob = 0
	}
	if q.prob > 1 {
		q.prob = 1
	}
	// Re-arm burst tolerance once the controller has fully relaxed (§4.4).
	if q.prob == 0 && qdelay < q.target/2 && q.qdelayOld < q.target/2 {
		q.burstAllowance = pieMaxBurst
	}
	q.qdelayOld = qdelay
}

// judge applies the RFC 8033 §4.1 enqueue decision, reporting whether the
// arriving packet should be dropped (or marked). The random draw is only
// consumed when none of the bypass conditions hold, keeping the stream a
// deterministic function of the arrival schedule.
func (q *PIE) judge() bool {
	if q.burstAllowance > 0 {
		return false
	}
	if q.qdelayOld < q.target/2 && q.prob < 0.2 {
		return false // delay comfortably low and probability modest
	}
	if q.ring.bytes <= 2*MTU {
		return false // nearly empty queue: never starve it
	}
	if q.prob <= 0 {
		return false
	}
	return q.rng.Float64() < q.prob
}

// Enqueue implements Qdisc: the control law runs at admission (PIE judges
// arriving packets, unlike CoDel's dequeue-side law), then the physical
// bounds apply droptail-style. A mark is only recorded once the packet is
// actually admitted — a judged packet the bound then tail-drops counts as
// a tail drop alone, preserving the invariant that marked packets are
// delivered.
func (q *PIE) Enqueue(pkt *Packet, now sim.Time) bool {
	q.advance(now)
	mark := false
	if q.judge() {
		if q.ecn && pkt.ECT {
			mark = true
		} else {
			q.aqmDrop(pkt)
			return false
		}
	}
	if !q.boundedEnqueue(pkt, now, q.maxPackets, q.maxBytes) {
		return false
	}
	if mark {
		q.aqmMark(pkt)
	}
	return true
}

// Dequeue implements Qdisc: a plain FIFO pop (the control law already ran
// at enqueue), after catching up the probability clock.
func (q *PIE) Dequeue(now sim.Time) *Packet {
	q.advance(now)
	return q.take(now)
}
