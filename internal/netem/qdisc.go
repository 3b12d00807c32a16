package netem

import (
	"fmt"
	"sort"

	"repro/internal/reuse"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Qdisc is a queue discipline: the pluggable buffer in front of an emulated
// link's transmitter. Mahimahi's mm-link shapes traffic through exactly this
// abstraction (infinite, droptail, and CoDel queues selected per direction);
// every queue-owning box — TraceBox, RateBox, GateBox — consumes a Qdisc
// instead of a concrete queue type.
//
// The contract mirrors a kernel qdisc:
//
//   - Enqueue stamps the packet with its arrival time and either admits it
//     or tail-drops it (returning false). A dropped packet is recycled at
//     the qdisc boundary (Packet.Recycle), so no discipline can leak pooled
//     packets back to the garbage collector.
//   - Dequeue removes and returns the next packet to transmit at virtual
//     time now, applying the discipline's drop law first (CoDel may discard
//     several stale packets before surfacing one). The survivor's sojourn
//     time — now minus its enqueue stamp — is recorded in QueueStats.
//   - Len/Bytes report the instantaneous backlog; QueueStats exposes the
//     cumulative drop/sojourn telemetry every discipline maintains
//     identically.
//
// Qdiscs are passive: they never schedule events, so their drop laws run
// entirely on the virtual clock and determinism is free.
type Qdisc interface {
	// Enqueue admits pkt at virtual time now; false reports a tail drop
	// (the packet has been recycled and must not be used afterwards).
	Enqueue(pkt *Packet, now sim.Time) bool
	// Dequeue removes and returns the next deliverable packet at now, or
	// nil when the queue is (or drains) empty. AQM drops happen inside.
	Dequeue(now sim.Time) *Packet
	// Len reports the number of queued packets.
	Len() int
	// Bytes reports the number of queued bytes.
	Bytes() int
	// QueueStats exposes the discipline's cumulative telemetry.
	QueueStats() *QueueStats
	// Flush removes every queued packet in delivery order and hands each to
	// fn, bypassing the drop law and the delivery/sojourn accounting — the
	// packets are leaving because the queue itself is being reconfigured
	// (a scripted qdisc swap or link-up purge), not because the discipline
	// judged them. Each flushed packet increments QueueStats.Flushed; the
	// callback owns the packet and decides its fate (re-enqueue elsewhere
	// or Recycle). The queue is empty afterwards.
	Flush(fn func(*Packet))
	// ReleaseStorage hands the queue's packet storage back to the pool it
	// grew from (the origin pool of its pooled packets), for the next queue
	// built on that pool. Call it once the queue is empty and will not be
	// used again, as a driver running cell after cell on one pool does at
	// the end of each cell; a queue still holding packets keeps its
	// storage. A drained queue keeps its storage until then, so the
	// steady-state hot path never returns and re-borrows it.
	ReleaseStorage()
}

// QueueStats is the unified per-queue telemetry every discipline maintains,
// so TraceBox, RateBox and GateBox report identically regardless of the
// qdisc behind them.
type QueueStats struct {
	// Enqueued counts packets admitted; Dequeued counts packets handed to
	// the transmitter.
	Enqueued uint64
	Dequeued uint64
	// TailDrops counts packets rejected at Enqueue (buffer full); AQMDrops
	// counts packets discarded by the discipline's control law (CoDel at
	// Dequeue, PIE at Enqueue). Droptail queues only ever tail-drop.
	TailDrops uint64
	AQMDrops  uint64
	// AQMMarks counts packets the control law CE-marked instead of dropping
	// (codel-ecn, PIE with ECN). Marked packets are delivered, so they also
	// count in Dequeued and the sojourn summary.
	AQMMarks uint64
	// Flushed counts packets removed by Flush — a scripted reconfiguration
	// emptied the queue under them. Flushed packets are neither delivered
	// nor dropped by this discipline (the flushing box accounts their fate),
	// so conservation reads Enqueued = Dequeued + Drops + Flushed + backlog.
	// Zero in every run without scripted dynamics.
	Flushed uint64
	// MaxLen and MaxBytes are backlog high-water marks, updated at Enqueue.
	MaxLen   int
	MaxBytes int
	// Sojourn summary over dequeued (delivered) packets: count, sum and
	// max of time spent queued. These fixed fields keep the hot path
	// allocation-free; attach an Accumulator via RecordSojourn for a full
	// distribution.
	SojournCount uint64
	SojournSum   sim.Time
	SojournMax   sim.Time

	hist *stats.Accumulator
	// flows, when enabled via TrackFlows, attributes the queue's telemetry
	// to the Flow id on every packet. Disabled (nil) by default so the
	// per-packet hot path pays only a nil check.
	flows map[uint64]*FlowQueueStats
}

// FlowQueueStats is one flow's share of a queue's telemetry: throughput
// (delivered packets and bytes), the sojourn summary of its delivered
// packets, and its drops-vs-marks split. Every field is a plain sum, so
// per-flow attribution merges order-free — the same property that lets
// stats.Accumulator merge cell results in matrix order regardless of
// completion order.
type FlowQueueStats struct {
	Enqueued      uint64
	Dequeued      uint64
	DequeuedBytes uint64
	TailDrops     uint64
	AQMDrops      uint64
	AQMMarks      uint64
	SojournCount  uint64
	SojournSum    sim.Time
	SojournMax    sim.Time

	// hist receives every delivered packet's sojourn in milliseconds.
	hist *stats.Accumulator
}

// SojournSample freezes the flow's per-packet sojourn distribution (in
// milliseconds); a sum made with Add has none and returns an empty sample.
func (f *FlowQueueStats) SojournSample() *stats.Sample {
	if f.hist == nil {
		return stats.New(nil)
	}
	return f.hist.Sample()
}

// Add folds o's counters into f, so per-flow records sum to per-class
// ones; SojournMax keeps the larger. The sojourn distributions are not
// merged: merge the flows' SojournSamples for class percentiles.
func (f *FlowQueueStats) Add(o *FlowQueueStats) {
	f.Enqueued += o.Enqueued
	f.Dequeued += o.Dequeued
	f.DequeuedBytes += o.DequeuedBytes
	f.TailDrops += o.TailDrops
	f.AQMDrops += o.AQMDrops
	f.AQMMarks += o.AQMMarks
	f.SojournCount += o.SojournCount
	f.SojournSum += o.SojournSum
	f.SojournMax = max(f.SojournMax, o.SojournMax)
}

// MeanSojourn reports the flow's mean queueing delay over its delivered
// packets.
func (f *FlowQueueStats) MeanSojourn() sim.Time {
	if f.SojournCount == 0 {
		return 0
	}
	return f.SojournSum / sim.Time(f.SojournCount)
}

// Drops reports total packets dropped by the discipline.
func (s *QueueStats) Drops() uint64 { return s.TailDrops + s.AQMDrops }

// MeanSojourn reports the mean queueing delay of dequeued packets.
func (s *QueueStats) MeanSojourn() sim.Time {
	if s.SojournCount == 0 {
		return 0
	}
	return s.SojournSum / sim.Time(s.SojournCount)
}

// TrackFlows enables per-flow attribution: from this call on, every
// enqueue, dequeue, drop and mark is also accounted against the packet's
// Flow id, and every flow records its per-packet sojourn distribution, for
// per-class percentiles (the fairness table's p95 columns). Call before
// traffic flows; the map lookups cost a few ns per packet, which is why
// attribution is opt-in.
func (s *QueueStats) TrackFlows() {
	if s.flows == nil {
		s.flows = make(map[uint64]*FlowQueueStats)
	}
}

// Flow returns the attribution record for one flow id, or nil when the
// flow was never seen (or tracking is disabled).
func (s *QueueStats) Flow(id uint64) *FlowQueueStats { return s.flows[id] }

// Flows returns the tracked flow ids in ascending order, so renderings
// derived from the map are deterministic.
func (s *QueueStats) Flows() []uint64 {
	ids := make([]uint64, 0, len(s.flows))
	for id := range s.flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// flow returns (creating if needed) the record for id, or nil when
// tracking is disabled.
func (s *QueueStats) flow(id uint64) *FlowQueueStats {
	if s.flows == nil {
		return nil
	}
	f := s.flows[id]
	if f == nil {
		f = &FlowQueueStats{hist: stats.NewAccumulator()}
		s.flows[id] = f
	}
	return f
}

// RecordSojourn attaches an accumulator that receives every dequeued
// packet's sojourn time in milliseconds, for percentile reporting (the
// bufferbloat experiment's p95 queueing delay). Pass nil to detach. The
// summary fields are maintained either way.
func (s *QueueStats) RecordSojourn(h *stats.Accumulator) { s.hist = h }

// noteSojourn records one dequeued packet's queueing delay.
func (s *QueueStats) noteSojourn(d sim.Time) {
	s.SojournCount++
	s.SojournSum += d
	if d > s.SojournMax {
		s.SojournMax = d
	}
	if s.hist != nil {
		s.hist.Add(d.Milliseconds())
	}
}

// The note* methods below are the single accounting path every discipline's
// telemetry flows through, whatever its storage shape: qdiscBase funnels its
// one-ring helpers through them, and FQCoDel (whose packets live in per-flow
// buckets) calls them directly. Keeping them on QueueStats is what lets the
// conformance suite state one set of invariants for all disciplines.

// noteEnqueue accounts one admitted packet; qlen and qbytes are the
// post-admission backlog gauges, from which the high-water marks refresh.
func (s *QueueStats) noteEnqueue(pkt *Packet, qlen, qbytes int) {
	s.Enqueued++
	if f := s.flow(pkt.Flow); f != nil {
		f.Enqueued++
	}
	if qlen > s.MaxLen {
		s.MaxLen = qlen
	}
	if qbytes > s.MaxBytes {
		s.MaxBytes = qbytes
	}
}

// noteDeliver accounts one packet handed to the transmitter after d in the
// queue: delivery count, sojourn summary, and (when tracked) the flow share.
func (s *QueueStats) noteDeliver(pkt *Packet, d sim.Time) {
	s.Dequeued++
	s.noteSojourn(d)
	if f := s.flow(pkt.Flow); f != nil {
		f.Dequeued++
		f.DequeuedBytes += uint64(pkt.Size)
		f.SojournCount++
		f.SojournSum += d
		if d > f.SojournMax {
			f.SojournMax = d
		}
		f.hist.Add(d.Milliseconds())
	}
}

// noteTailDrop accounts one packet rejected (or, for fq_codel's overflow
// law, evicted) outside the AQM control law. The caller recycles.
func (s *QueueStats) noteTailDrop(pkt *Packet) {
	s.TailDrops++
	if f := s.flow(pkt.Flow); f != nil {
		f.TailDrops++
	}
}

// noteAQMDrop accounts one control-law drop. The caller recycles.
func (s *QueueStats) noteAQMDrop(pkt *Packet) {
	s.AQMDrops++
	if f := s.flow(pkt.Flow); f != nil {
		f.AQMDrops++
	}
}

// noteMark accounts one control-law CE mark; the packet stays queued and is
// delivered.
func (s *QueueStats) noteMark(pkt *Packet) {
	s.AQMMarks++
	if f := s.flow(pkt.Flow); f != nil {
		f.AQMMarks++
	}
}

// noteFlush accounts one packet removed by a scripted reconfiguration.
// Flushes are not attributed per flow: the queue is being torn out from
// under every flow equally, and the fairness tables compare what the
// discipline chose, which a flush is not.
func (s *QueueStats) noteFlush() { s.Flushed++ }

// pktRing is the FIFO storage shared by every queue discipline: an
// append-only slice with a dead-prefix head index, compacted once the dead
// prefix dominates so memory stays bounded under sustained churn. A ring of
// pooled packets grows through their origin pool's arrays and hands its
// array back in release; a ring of hand-built packets grows by append.
type pktRing struct {
	pkts  []*Packet
	head  int
	bytes int
	// rings is the pool the current array came from, nil while the ring
	// grows by append.
	rings *reuse.Arrays[*Packet]
}

func (r *pktRing) push(pkt *Packet) {
	if len(r.pkts) == cap(r.pkts) && pkt.pool != nil {
		r.regrow(&pkt.pool.rings)
	}
	r.pkts = append(r.pkts, pkt)
	r.bytes += pkt.Size
}

// regrow moves the live packets to the front of a pooled array with room
// for as many again, handing the outgrown array back.
func (r *pktRing) regrow(rings *reuse.Arrays[*Packet]) {
	live := r.pkts[r.head:]
	next := append(rings.Get(2*len(live)), live...)
	rings.Put(r.pkts)
	r.pkts, r.head, r.rings = next, 0, rings
}

// release hands an empty ring's pooled array back.
func (r *pktRing) release() {
	if r.rings == nil || r.len() > 0 {
		return
	}
	r.rings.Put(r.pkts)
	r.pkts, r.head, r.rings = nil, 0, nil
}

func (r *pktRing) pop() *Packet {
	if r.len() == 0 {
		return nil
	}
	pkt := r.pkts[r.head]
	r.pkts[r.head] = nil
	r.head++
	r.bytes -= pkt.Size
	// Compact once the dead prefix dominates, to bound memory.
	if r.head > 64 && r.head*2 >= len(r.pkts) {
		n := copy(r.pkts, r.pkts[r.head:])
		r.pkts = r.pkts[:n]
		r.head = 0
	}
	return pkt
}

func (r *pktRing) peek() *Packet {
	if r.len() == 0 {
		return nil
	}
	return r.pkts[r.head]
}

func (r *pktRing) len() int { return len(r.pkts) - r.head }

// qdiscBase bundles the ring and the telemetry shared by all disciplines.
type qdiscBase struct {
	ring  pktRing
	stats QueueStats
}

// admit stamps and stores one packet, maintaining the shared gauges. Every
// discipline's Enqueue funnels through here, which is what keeps the batch
// (SendBatch) and single-packet box paths in agreement: there is exactly
// one place queue gauges are updated.
func (b *qdiscBase) admit(pkt *Packet, now sim.Time) {
	pkt.enq = now
	b.ring.push(pkt)
	b.stats.noteEnqueue(pkt, b.ring.len(), b.ring.bytes)
}

// deliver accounts one packet handed to the transmitter: the delivery
// count, the sojourn summary, and (when tracked) the packet's flow share.
// Every discipline's Dequeue funnels survivors through here.
func (b *qdiscBase) deliver(pkt *Packet, now sim.Time) {
	b.stats.noteDeliver(pkt, now-pkt.enq)
}

// take removes the head and records its sojourn as a delivery.
func (b *qdiscBase) take(now sim.Time) *Packet {
	pkt := b.ring.pop()
	if pkt == nil {
		return nil
	}
	b.deliver(pkt, now)
	return pkt
}

// tailDrop rejects a packet at the enqueue boundary and recycles it.
func (b *qdiscBase) tailDrop(pkt *Packet) {
	b.stats.noteTailDrop(pkt)
	pkt.Recycle()
}

// boundedEnqueue is the shared droptail admission law: admit unless either
// bound (0 = unlimited) would be exceeded, tail-dropping otherwise. Both
// DropTail and CoDel's physical buffer go through here, so the admission
// rule cannot diverge between disciplines.
func (b *qdiscBase) boundedEnqueue(pkt *Packet, now sim.Time, maxPackets, maxBytes int) bool {
	if maxPackets > 0 && b.ring.len() >= maxPackets {
		b.tailDrop(pkt)
		return false
	}
	if maxBytes > 0 && b.ring.bytes+pkt.Size > maxBytes {
		b.tailDrop(pkt)
		return false
	}
	b.admit(pkt, now)
	return true
}

// aqmDrop discards a packet by control-law decision and recycles it.
func (b *qdiscBase) aqmDrop(pkt *Packet) {
	b.stats.noteAQMDrop(pkt)
	pkt.Recycle()
}

// aqmMark sets the CE mark on a packet by control-law decision; the packet
// stays in the system and is delivered (the ECN alternative to aqmDrop).
func (b *qdiscBase) aqmMark(pkt *Packet) {
	pkt.CE = true
	b.stats.noteMark(pkt)
}

// Flush implements Qdisc for every single-ring discipline: pop the ring in
// FIFO order, count each packet as flushed, and hand it to fn.
func (b *qdiscBase) Flush(fn func(*Packet)) {
	for {
		pkt := b.ring.pop()
		if pkt == nil {
			return
		}
		b.stats.noteFlush()
		fn(pkt)
	}
}

// ReleaseStorage implements Qdisc.
func (b *qdiscBase) ReleaseStorage() { b.ring.release() }

// Len implements Qdisc.
func (b *qdiscBase) Len() int { return b.ring.len() }

// Bytes implements Qdisc.
func (b *qdiscBase) Bytes() int { return b.ring.bytes }

// QueueStats implements Qdisc.
func (b *qdiscBase) QueueStats() *QueueStats { return &b.stats }

// Qdisc kind names, as spelled on Mahimahi's --uplink-queue/--downlink-queue
// command lines.
const (
	QdiscDropTail = "droptail"
	QdiscInfinite = "infinite"
	QdiscCoDel    = "codel"
	QdiscPIE      = "pie"
	QdiscFQCoDel  = "fq_codel"
)

// CoDel defaults per RFC 8289 §4.2–4.3.
const (
	DefaultCoDelTarget   = 5 * sim.Millisecond
	DefaultCoDelInterval = 100 * sim.Millisecond
)

// QdiscSpec declaratively selects and parameterizes a queue discipline, the
// value plumbed from CLI flags through shells.LinkShell down to the boxes.
// The zero spec builds an unbounded droptail queue, Mahimahi's default.
type QdiscSpec struct {
	// Kind is "", QdiscDropTail, QdiscInfinite, QdiscCoDel, QdiscPIE or
	// QdiscFQCoDel; empty means droptail.
	Kind string
	// Packets and Bytes bound the backlog (0 = unlimited in that
	// dimension). For CoDel and PIE they bound the physical buffer behind
	// the control law; for fq_codel they are the aggregate limits the
	// overflow law (drop from the fattest bucket) enforces.
	Packets int
	Bytes   int
	// Target parameterizes the AQM's delay reference: CoDel's and
	// fq_codel's sojourn target (zero = RFC 8289's 5 ms) or PIE's
	// QDELAY_REF (zero = RFC 8033's 15 ms). Interval is CoDel's/fq_codel's
	// control interval (zero = 100 ms); TUpdate is PIE's
	// probability-update period (zero = 15 ms). A negative value counts as
	// zero here and in Flows and Quantum.
	Target   sim.Time
	Interval sim.Time
	TUpdate  sim.Time
	// Flows and Quantum parameterize fq_codel: the flow-bucket count
	// (zero = RFC 8290's 1024) and the DRR byte quantum (zero = one MTU).
	Flows   int
	Quantum int
	// ECN switches the AQMs from dropping to CE-marking ECT packets
	// (non-ECT packets are still dropped). Ignored by droptail/infinite.
	ECN bool
}

// Build instantiates the discipline the spec describes; it is the only
// constructor of the AQM disciplines. Unknown kinds panic: specs come from
// CLI flags and driver tables, where a typo should fail loudly at setup
// rather than silently shape traffic wrong.
func (s QdiscSpec) Build() Qdisc {
	switch s.Kind {
	case "", QdiscDropTail:
		return NewDropTail(s.Packets, s.Bytes)
	case QdiscInfinite:
		return NewDropTail(0, 0)
	case QdiscCoDel:
		return &CoDel{law: s.codelLaw(), maxPackets: s.Packets, maxBytes: s.Bytes}
	case QdiscPIE:
		return &PIE{
			target:     orDefault(s.Target, DefaultPIETarget),
			tUpdate:    orDefault(s.TUpdate, DefaultPIETUpdate),
			maxPackets: s.Packets, maxBytes: s.Bytes,
			ecn: s.ECN, rng: sim.NewRand(pieSeed),
		}
	case QdiscFQCoDel:
		return newFQCoDel(s)
	default:
		panic(fmt.Sprintf("netem: unknown qdisc kind %q", s.Kind))
	}
}

// codelLaw is the RFC 8289 law the spec parameterizes, shared by CoDel and
// by every fq_codel bucket.
func (s QdiscSpec) codelLaw() codelLaw {
	return codelLaw{
		target:   orDefault(s.Target, DefaultCoDelTarget),
		interval: orDefault(s.Interval, DefaultCoDelInterval),
		ecn:      s.ECN,
	}
}

// orDefault returns v, or def when v is zero or negative: an unset spec
// parameter selects the RFC default.
func orDefault[T ~int | ~int64](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// String renders the spec as a compact label ("droptail", "droptail-32p",
// "codel-t5ms", "pie-ecn"), used in shell names and experiment cell
// coordinates. Every parameter that changes behavior appears in the label,
// so distinct specs are distinct cell coordinates (distinct seeds).
func (s QdiscSpec) String() string {
	kind := s.Kind
	if kind == "" {
		kind = QdiscDropTail
	}
	label := kind
	if s.ECN && (kind == QdiscCoDel || kind == QdiscPIE || kind == QdiscFQCoDel) {
		label += "-ecn"
	}
	if s.Packets > 0 {
		label += fmt.Sprintf("-%dp", s.Packets)
	}
	if s.Bytes > 0 {
		label += fmt.Sprintf("-%dB", s.Bytes)
	}
	if (kind == QdiscCoDel || kind == QdiscPIE || kind == QdiscFQCoDel) && s.Target > 0 {
		label += fmt.Sprintf("-t%v", s.Target)
	}
	if (kind == QdiscCoDel || kind == QdiscFQCoDel) && s.Interval > 0 {
		label += fmt.Sprintf("-i%v", s.Interval)
	}
	if kind == QdiscPIE && s.TUpdate > 0 {
		label += fmt.Sprintf("-u%v", s.TUpdate)
	}
	if kind == QdiscFQCoDel && s.Flows > 0 {
		label += fmt.Sprintf("-f%d", s.Flows)
	}
	if kind == QdiscFQCoDel && s.Quantum > 0 {
		label += fmt.Sprintf("-q%d", s.Quantum)
	}
	return label
}
