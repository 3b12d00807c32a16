package netem

import "repro/internal/sim"

// train is a pending packet-train delivery: a contiguous run of packets
// leaving a box at one virtual instant through a single event, instead of
// one event per packet. Trains are the data plane's batching unit (the
// burst/batch processing that forwarders like ndn-dpdk use): a TCP sender's
// congestion-window burst enters a fixed-delay box back-to-back, exits it
// back-to-back one delay later, and crosses the event loop as one event.
//
// Correctness rests on an adjacency invariant: a packet may join a box's
// open train only if its stand-alone delivery event would fire immediately
// after the train's last packet with nothing in between. Both conditions
// are checked at append time:
//
//   - same exit instant (equal timestamps, and the train's event was
//     scheduled with the earliest element's sequence number, so the run
//     fires at the first element's position), and
//   - no other event was scheduled on the loop since the train's last
//     append (sim.Loop.SeqMark unchanged) — otherwise an intervening
//     same-instant event could sort between the run's elements.
//
// Under that invariant, firing the train once and delivering its packets
// in order is byte-identical to the per-packet schedule: every experiment
// artifact is unchanged, only the event count drops.
//
// A train belongs to the origin pool of the packet that opens it, like the
// packet itself: it comes from that pool's free list, borrows its packet
// array from the pool's capacity classes, and hands both back on delivery,
// so a parked train holds no capacity and a warmed shard opens trains
// without allocating. A train opened by a hand-built packet (tests,
// benches) has no pool: it grows by append and is left to the collector.
// Trains never travel: the owning box hands the packet slice to its sink
// (see BatchSink's retention rule) and closes the train right after.
type train struct {
	exit sim.Time
	pkts []*Packet
	pool *PacketPool
}

// openTrain returns a train leaving at exit that holds pkt.
func openTrain(pkt *Packet, exit sim.Time) *train {
	var t *train
	if pp := pkt.pool; pp != nil {
		t = pp.trains.Get()
	}
	if t == nil {
		t = &train{pool: pkt.pool}
	}
	t.exit = exit
	t.add(pkt)
	return t
}

// add appends pkt to the train.
func (t *train) add(pkt *Packet) {
	if t.pool == nil {
		t.pkts = append(t.pkts, pkt)
		return
	}
	t.pkts = t.pool.rings.Append(t.pkts, pkt)
}

// close hands a delivered train and its array back to its pool.
func (t *train) close() {
	if t.pool == nil {
		return
	}
	t.pool.rings.Put(t.pkts)
	t.pkts = nil
	t.pool.trains.Put(t)
}
