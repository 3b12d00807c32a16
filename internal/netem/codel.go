package netem

import (
	"math"

	"repro/internal/sim"
)

// CoDel is the Controlled Delay AQM discipline of RFC 8289, the second
// queue Mahimahi's mm-link offers (--uplink-queue=codel). Instead of
// bounding the backlog by size, CoDel bounds the time packets spend in it:
// when the sojourn time of dequeued packets has stayed above Target for at
// least one Interval, the discipline enters a dropping state and discards
// packets at dequeue, spacing successive drops by Interval/sqrt(count) so
// the drop rate ramps up until the standing queue dissolves.
//
// The implementation is a direct transcription of the RFC 8289 appendix
// pseudocode onto the simulator's virtual clock. Every quantity the control
// law consumes — enqueue stamps, the dequeue instant, Interval arithmetic —
// is virtual time, and math.Sqrt is correctly rounded per IEEE 754, so the
// drop sequence for a given arrival schedule is fully deterministic: the
// same property that makes every other artifact byte-identical across
// parallelism levels holds for CoDel cells for free. (A
// kernel CoDel is only approximately reproducible because its clock reads
// race with packet arrivals.)
//
// In ECN mode (RFC 8289 §4.1: "CoDel can be easily adapted to use ECN
// marking instead of dropping") the control law CE-marks ECT packets at the
// instants it would have dropped them — same state machine, same
// interval/sqrt(count) schedule — and delivers them; non-ECT packets are
// still dropped. Marking leaves the backlog intact, so queue control relies
// on the transport reacting to the echoed marks.
//
// An optional packet/byte bound models the finite physical buffer behind
// the control law (tail drops, like droptail); zero bounds mean none.
//
// The control law itself lives in codelState/codelLaw below, shared with
// FQCoDel, which runs one instance of the same law per flow bucket
// (RFC 8290 §4.2.2).
type CoDel struct {
	qdiscBase
	law        codelLaw
	maxPackets int
	maxBytes   int
	state      codelState
}

// codelLaw bundles the RFC 8289 parameters one control law runs with. It is
// shared by the whole-queue CoDel discipline and by fq_codel, where every
// flow bucket runs the same law with its own codelState.
type codelLaw struct {
	target   sim.Time
	interval sim.Time
	ecn      bool
}

// codelState is one law instance's control state, named as in RFC 8289.
// CoDel has exactly one; FQCoDel has one per flow bucket.
type codelState struct {
	firstAboveTime sim.Time // when sojourn first stayed above target (0 = below)
	dropNext       sim.Time // next drop instant while in the dropping state
	count          uint32   // drops since entering the dropping state
	lastCount      uint32   // count when the dropping state was last exited
	dropping       bool
}

// codelQueue is the law's view of the FIFO it controls plus the owning
// discipline's drop/mark accounting. CoDel implements it over its single
// ring; each fq_codel flow implements it over its bucket, reporting the
// qdisc's aggregate backlog — the same choice Linux makes by passing the
// whole-qdisc backlog to codel_should_drop, so the one-MTU standdown
// disarms the law only when the link as a whole is about to starve.
type codelQueue interface {
	// popPkt removes and returns the next packet of the controlled FIFO,
	// or nil when it is empty. Backlog gauges update before backlogBytes
	// is consulted.
	popPkt() *Packet
	// backlogBytes reports the aggregate backlog behind the law.
	backlogBytes() int
	// dropPkt accounts a control-law drop and recycles the packet.
	dropPkt(pkt *Packet)
	// markPkt CE-marks the packet and accounts the control-law firing.
	markPkt(pkt *Packet)
}

// doDequeue pops the head and judges it: okToDrop reports that the sojourn
// time has been above target for a full interval (RFC 8289 dodeque). The
// popped packet is NOT yet accounted as delivered or dropped — dequeue
// decides which.
func (st *codelState) doDequeue(now sim.Time, law codelLaw, q codelQueue) (pkt *Packet, okToDrop bool) {
	pkt = q.popPkt()
	if pkt == nil {
		st.firstAboveTime = 0
		return nil, false
	}
	sojourn := now - pkt.enq
	if sojourn < law.target || q.backlogBytes() <= MTU {
		// Below target, or the backlog is down to one MTU: leave the
		// dropping threshold disarmed.
		st.firstAboveTime = 0
		return pkt, false
	}
	if st.firstAboveTime == 0 {
		st.firstAboveTime = now + law.interval
	} else if now >= st.firstAboveTime {
		okToDrop = true
	}
	return pkt, okToDrop
}

// controlLaw spaces the next drop by interval/sqrt(count), the CoDel
// square-root schedule that ramps the drop rate while the queue stands.
func (st *codelState) controlLaw(t sim.Time, law codelLaw) sim.Time {
	return t + sim.Time(float64(law.interval)/math.Sqrt(float64(st.count)))
}

// dequeue runs the RFC 8289 deque state machine: in drop mode it may
// discard several packets (recycling each through q.dropPkt) before
// surfacing a survivor; in ECN mode a control-law firing on an ECT packet
// CE-marks it instead. The survivor is returned NOT yet accounted as
// delivered — the owning discipline delivers it (CoDel directly, FQCoDel
// after its DRR bookkeeping).
func (st *codelState) dequeue(now sim.Time, law codelLaw, q codelQueue) *Packet {
	pkt, okToDrop := st.doDequeue(now, law, q)
	if pkt == nil {
		st.dropping = false
		return nil
	}
	if st.dropping {
		if !okToDrop {
			// Sojourn fell below target: leave the dropping state.
			st.dropping = false
		} else {
			for st.dropping && now >= st.dropNext {
				if law.ecn && pkt.ECT {
					// Mark instead of drop: the packet survives, the
					// drop schedule advances exactly as a drop would
					// have advanced it.
					q.markPkt(pkt)
					st.count++
					st.dropNext = st.controlLaw(st.dropNext, law)
					break
				}
				q.dropPkt(pkt)
				st.count++
				pkt, okToDrop = st.doDequeue(now, law, q)
				if pkt == nil {
					st.dropping = false
					return nil
				}
				if !okToDrop {
					st.dropping = false
				} else {
					st.dropNext = st.controlLaw(st.dropNext, law)
				}
			}
		}
	} else if okToDrop {
		// Enter the dropping state: drop (or, in ECN mode, mark) this
		// packet.
		if law.ecn && pkt.ECT {
			q.markPkt(pkt)
		} else {
			q.dropPkt(pkt)
			pkt, _ = st.doDequeue(now, law, q)
		}
		st.dropping = true
		// If we were dropping recently, start the drop rate near where it
		// left off instead of from 1 (RFC 8289 deque, the "count decay").
		delta := st.count - st.lastCount
		if delta > 1 && now-st.dropNext < 16*law.interval {
			st.count = delta
		} else {
			st.count = 1
		}
		st.dropNext = st.controlLaw(now, law)
		st.lastCount = st.count
		if pkt == nil {
			st.dropping = false
			return nil
		}
	}
	return pkt
}

// popPkt implements codelQueue over the discipline's single ring.
func (q *CoDel) popPkt() *Packet { return q.ring.pop() }

// backlogBytes implements codelQueue.
func (q *CoDel) backlogBytes() int { return q.ring.bytes }

// dropPkt implements codelQueue.
func (q *CoDel) dropPkt(pkt *Packet) { q.aqmDrop(pkt) }

// markPkt implements codelQueue.
func (q *CoDel) markPkt(pkt *Packet) { q.aqmMark(pkt) }

// Enqueue implements Qdisc: admission is droptail against the physical
// bounds; the control law acts only at dequeue.
func (q *CoDel) Enqueue(pkt *Packet, now sim.Time) bool {
	return q.boundedEnqueue(pkt, now, q.maxPackets, q.maxBytes)
}

// Dequeue implements Qdisc: the RFC 8289 deque state machine over the
// single ring, then delivery accounting for the survivor.
func (q *CoDel) Dequeue(now sim.Time) *Packet {
	pkt := q.state.dequeue(now, q.law, q)
	if pkt == nil {
		return nil
	}
	q.deliver(pkt, now)
	return pkt
}
