// Package netem implements Mahimahi's network-emulation primitives on the
// virtual clock from internal/sim.
//
// The paper's DelayShell and LinkShell are, at their core, two queueing
// disciplines applied per direction of a link:
//
//   - DelayBox: every packet is released exactly one fixed one-way delay
//     after it arrives (DelayShell, §2).
//   - TraceBox: packets wait in a queue and are released at packet-delivery
//     opportunities read from a trace file, one MTU-sized packet per
//     opportunity (LinkShell, §2).
//
// Boxes are unidirectional and composable in series (Pipeline); a
// bidirectional link is a pair of pipelines, one per direction
// (nsim.Connect). Shell nesting in Mahimahi (`mm-delay 50 mm-link up down
// -- app`) corresponds to concatenating each shell's boxes onto both
// directions.
//
// A Packet is also the datagram nsim routes between namespaces: it carries
// the IP header (Src, Dst, TTL), which boxes never read, so the packet a
// transport sends is the one every box on its path queues.
package netem

import (
	"fmt"

	"repro/internal/reuse"
	"repro/internal/sim"
)

// MTU is the emulated maximum transmission unit. Mahimahi's traces describe
// delivery opportunities for 1500-byte packets.
const MTU = 1500

// Packet is the unit of work flowing through boxes, and the datagram nsim
// routes between namespaces (nsim.Datagram is this type). Packets carry an
// opaque payload for the transport layer; boxes only inspect Size, Flow and
// the ECN and corruption marks.
type Packet struct {
	// Size is the number of bytes the packet occupies on the wire,
	// including all headers.
	Size int
	// Flow identifies the connection the packet belongs to, for per-flow
	// accounting in tests and stats.
	Flow uint64
	// Seq is a transport-defined sequence number (used only for debugging
	// and test assertions).
	Seq int64
	// Src and Dst are the IP header's transport endpoints, which nsim
	// routes and delivers on. Boxes never read them.
	Src, Dst AddrPort
	// ECT marks the packet as belonging to an ECN-capable transport
	// (RFC 3168): a marking AQM (codel-ecn, PIE) signals congestion on such
	// packets by setting CE instead of dropping them. Non-ECT packets are
	// dropped as before even by a marking discipline.
	ECT bool
	// CE is the Congestion Experienced mark, set by an AQM whose control
	// law fired on an ECT packet. It travels with the packet to the
	// receiving transport, which echoes it back to the sender.
	CE bool
	// Corrupt marks the packet as bit-damaged in flight (CorruptBox). The
	// emulation delivers it anyway — real links do — and the receiving
	// transport discards it as a checksum failure, so corruption costs a
	// full RTO or fast-retransmit round trip rather than vanishing
	// silently at the link.
	Corrupt bool
	// TTL is the IP hop limit: nsim drops a packet whose TTL reaches zero
	// while forwarding. Boxes never read it.
	TTL uint8
	// enq is the virtual time the packet entered the qdisc currently
	// holding it, stamped by Qdisc.Enqueue; sojourn-time AQM (CoDel) and
	// per-queue delay telemetry read it at dequeue.
	enq sim.Time
	// Payload is opaque transport data (e.g. a *tcpsim.Segment). A payload
	// that implements Payload is released when the packet is dropped and
	// cloned when it is duplicated.
	Payload any
	// pool is the packet's origin pool (nil for hand-built packets), so a
	// drop anywhere in the data plane can recycle without knowing the
	// topology.
	pool *PacketPool
}

// Payload is a packet payload that holds pooled or reference-counted state
// of the layers above netem: the tcpsim segment a packet carries. A drop
// anywhere in the data plane releases it and a duplicate clones it, so
// netem needs to know nothing of those layers.
type Payload interface {
	// Release gives back what the dropped packet held: the segment loses
	// the wire copy's reference.
	Release()
	// Clone returns a copy the duplicate owns, so that the two copies can
	// each be delivered or dropped, in any order.
	Clone() any
}

// PacketPool recycles Packets within one event loop, and the trains and
// queue storage that carry them. The simulation is single-goroutine per
// loop, so the free lists need no synchronization. Packets dropped anywhere
// in the data plane (qdisc tail or AQM drops, probabilistic loss) are
// recycled via Packet.Recycle.
type PacketPool struct {
	free reuse.Free[Packet]
	// trains recycles the delivery trains a DelayBox opens with this pool's
	// packets (see train).
	trains reuse.Free[train]
	// rings lends packet arrays: a qdisc ring or a train grows from the
	// origin pool of the packets it holds and hands its array back when it
	// empties (Qdisc.ReleaseStorage, train delivery), so queues and trains
	// rebuilt cell after cell on one pool reuse the arrays instead of
	// regrowing them.
	rings reuse.Arrays[*Packet]
}

// Get returns a zeroed packet, reusing a recycled one when available.
func (pp *PacketPool) Get() *Packet {
	if pkt := pp.free.Get(); pkt != nil {
		return pkt
	}
	return &Packet{pool: pp}
}

// Put recycles a pool-allocated packet. The caller must be done with the
// packet: its fields are cleared in place.
func (pp *PacketPool) Put(pkt *Packet) {
	if pkt == nil || pkt.pool == nil {
		return
	}
	*pkt = Packet{pool: pp}
	pp.free.Put(pkt)
}

// Outstanding reports Get calls not yet balanced by a Put: the number of
// pool packets currently alive (in flight or queued). Zero at quiescence
// means no drop path leaked a packet.
func (pp *PacketPool) Outstanding() int64 { return pp.free.Outstanding() }

// Recycle returns a dropped pool-allocated packet to its origin pool;
// hand-built packets (tests, benches) are ignored. Every drop path — qdisc
// tail and AQM drops, probabilistic loss — calls this, so no discipline can
// leak pooled packets.
//
// A dropped packet's payload is dead too: nothing downstream will ever see
// it, so a Payload is released here. Delivered packets are recycled with
// Put by the sink that consumed the payload.
func (p *Packet) Recycle() {
	if p == nil || p.pool == nil {
		return
	}
	if pl, ok := p.Payload.(Payload); ok {
		pl.Release()
	}
	p.pool.Put(p)
}

// Clone returns an independently-owned copy of the packet (DuplicateBox's
// wire duplicate). Pooled packets clone through their origin pool — the
// get/put ledger sees the copy as a first-class packet — and a Payload is
// cloned so both copies can be delivered or dropped in any order. Any
// other payload is not copied: the clone carries nil.
func (p *Packet) Clone() *Packet {
	var cp *Packet
	if p.pool != nil {
		cp = p.pool.Get()
	} else {
		cp = &Packet{}
	}
	cp.Size, cp.Flow, cp.Seq, cp.Src, cp.Dst = p.Size, p.Flow, p.Seq, p.Src, p.Dst
	cp.ECT, cp.CE, cp.Corrupt, cp.TTL, cp.enq = p.ECT, p.CE, p.Corrupt, p.TTL, p.enq
	if pl, ok := p.Payload.(Payload); ok {
		cp.Payload = pl.Clone()
	}
	return cp
}

// String formats a short description of the packet for debug output.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{flow=%d seq=%d size=%d}", p.Flow, p.Seq, p.Size)
}

// Sink consumes delivered packets one at a time: the per-packet adapter
// that tests and benches install with SetSink. A box whose only sink is a
// Sink hands it each train's packets in order.
type Sink func(pkt *Packet)

// BatchSink consumes a packet train: a contiguous run of packets delivered
// at one virtual instant whose per-packet deliveries are provably adjacent
// in event-firing order (nothing else may fire between them), so the whole
// run can be handed over in one call. It is how boxes are chained (Pipeline)
// and how a link end crosses into its namespace (nsim.Connect). The slice is
// owned by the caller and valid only for the duration of the call; consumers
// must not retain it.
type BatchSink func(pkts []*Packet)

// Box is a unidirectional packet processor whose one unit of work is the
// train: packets enter through SendBatch and leave, as trains, through the
// installed sink (or are dropped). A single packet is a one-element train.
type Box interface {
	// Send injects one packet at the current virtual time: SendBatch of a
	// one-element train held in a slot the box owns, so it allocates
	// nothing. It panics if no sink is installed.
	Send(pkt *Packet)
	// SendBatch injects a same-instant packet train. The box does per-train
	// work where it can (one delivery event, one queue arm); the result is
	// identical to sending the packets one by one with nothing in between.
	SendBatch(pkts []*Packet)
	// SetSink installs a per-packet delivery callback; it is used only
	// while no batch sink is installed.
	SetSink(sink Sink)
	// SetBatchSink installs the train delivery callback.
	SetBatchSink(sink BatchSink)
	// Stats reports the box's counters.
	Stats() BoxStats
}

// BoxStats are the counters every box maintains.
type BoxStats struct {
	// Arrived counts packets that entered the box.
	Arrived uint64
	// Delivered counts packets handed to the sink.
	Delivered uint64
	// Dropped counts packets discarded (queue overflow, loss).
	Dropped uint64
	// ArrivedBytes and DeliveredBytes are the byte analogues.
	ArrivedBytes   uint64
	DeliveredBytes uint64
	// QueueLen is the instantaneous number of queued packets.
	QueueLen int
	// QueueBytes is the instantaneous number of queued bytes.
	QueueBytes int
	// MaxQueueLen is the high-water mark of QueueLen.
	MaxQueueLen int
}

// arrive counts one packet into a box.
func (s *BoxStats) arrive(pkt *Packet) {
	s.Arrived++
	s.ArrivedBytes += uint64(pkt.Size)
}

// port is the egress every box embeds: the installed sinks, the delivered
// counters, the slot that carries Send's one-element train, and scratch for
// boxes that deliver a train other than the one they were handed.
type port struct {
	sink    Sink
	batch   BatchSink
	stats   BoxStats
	slot    [1]*Packet
	scratch []*Packet
}

// SetSink implements Box.
func (p *port) SetSink(sink Sink) { p.sink = sink }

// SetBatchSink implements Box.
func (p *port) SetBatchSink(sink BatchSink) { p.batch = sink }

// Stats implements Box.
func (p *port) Stats() BoxStats { return p.stats }

// one returns pkt as a one-element train in the box's own slot. The slot is
// safe to reuse on every call because no box is re-entered from its own
// delivery: a link end always crosses into its namespace through the event
// loop (nsim.Connect).
func (p *port) one(pkt *Packet) []*Packet {
	if p.sink == nil && p.batch == nil {
		panic("netem: Send before SetSink")
	}
	p.slot[0] = pkt
	return p.slot[:]
}

// emit delivers a train downstream and counts it delivered.
func (p *port) emit(pkts []*Packet) {
	for _, pkt := range pkts {
		p.stats.Delivered++
		p.stats.DeliveredBytes += uint64(pkt.Size)
	}
	if p.batch != nil {
		p.batch(pkts)
		return
	}
	for _, pkt := range pkts {
		p.sink(pkt)
	}
}

// fork starts the box's own copy of its outgoing train once that train
// first departs from the incoming one at index i (a drop, a diversion, a
// clone): pkts[:i] copied into the port's scratch. A train that passes
// whole is never copied.
func (p *port) fork(pkts []*Packet, i int) []*Packet { return append(p.scratch, pkts[:i]...) }

// emitScratch delivers a train the box built in p.scratch (forked, or
// drained from a queue) and clears the scratch for the next train.
func (p *port) emitScratch(out []*Packet) {
	if len(out) > 0 {
		p.emit(out)
	}
	for i := range out {
		out[i] = nil
	}
	p.scratch = out[:0]
}
