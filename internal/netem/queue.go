package netem

import "repro/internal/sim"

// DropTail is a FIFO queue discipline with optional packet-count and byte
// limits, matching the droptail queues in front of Mahimahi's emulated
// links. A zero limit means unlimited in that dimension, so NewDropTail(0, 0)
// is Mahimahi's "infinite" queue: every packet is admitted and none is ever
// dropped.
type DropTail struct {
	qdiscBase
	maxPackets int
	maxBytes   int
}

// NewDropTail returns a queue bounded by maxPackets packets and maxBytes
// bytes; zero disables the respective bound.
func NewDropTail(maxPackets, maxBytes int) *DropTail {
	return &DropTail{maxPackets: maxPackets, maxBytes: maxBytes}
}

// Enqueue implements Qdisc: the packet is admitted unless either bound
// would be exceeded, in which case it is tail-dropped and recycled.
func (q *DropTail) Enqueue(pkt *Packet, now sim.Time) bool {
	return q.boundedEnqueue(pkt, now, q.maxPackets, q.maxBytes)
}

// Dequeue implements Qdisc: droptail has no dequeue-time drop law, so this
// is a plain FIFO pop with sojourn accounting.
func (q *DropTail) Dequeue(now sim.Time) *Packet { return q.take(now) }
