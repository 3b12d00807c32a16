package netem

import "repro/internal/sim"

// FQCoDel defaults per RFC 8290 §5.2, matching Linux tc fq_codel: 1024
// flow buckets and a DRR quantum of one MTU.
const (
	DefaultFQFlows   = 1024
	DefaultFQQuantum = MTU
)

// fqHashSeed perturbs the flow-to-bucket hash. Like pieSeed (0x8033), the
// constant spells the discipline's RFC number, and like every seed in the
// simulator it is fixed rather than random: Linux randomizes its fq_codel
// hash per boot to resist tuning attacks, but here a randomized hash would
// make bucket collisions — and therefore drop sequences — differ between
// runs, destroying the byte-identical artifact property.
const fqHashSeed = 0x8290

// fqHash maps a Flow id to a bucket-selection value with the splitmix64
// finalizer (the same avalanche stage sim.DeriveSeed ends with), so nearby
// flow ids spread uniformly across buckets.
func fqHash(flow uint64) uint64 {
	h := flow ^ fqHashSeed
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// fqFlow is one flow bucket: a FIFO ring, its own CoDel control state
// (RFC 8290 §4.2.2 — the law's parameters are shared, the state is not),
// and the DRR scheduling fields. Buckets live in one slice allocated at
// construction and are linked intrusively through next, so steady-state
// operation allocates nothing.
type fqFlow struct {
	ring    pktRing
	state   codelState
	deficit int     // DRR byte credit; refilled by one quantum per round
	next    *fqFlow // intrusive link while on the new or old list
	queued  bool    // on the new or old list
	q       *FQCoDel
}

// popPkt implements codelQueue: the control law consumes packets from this
// bucket's ring, with the qdisc's aggregate gauges kept current so
// backlogBytes (read post-pop) sees them.
func (f *fqFlow) popPkt() *Packet {
	pkt := f.ring.pop()
	if pkt != nil {
		f.q.totalLen--
		f.q.totalBytes -= pkt.Size
	}
	return pkt
}

// backlogBytes implements codelQueue: per RFC 8290 §4.2.2 (and Linux's
// codel_should_drop call) the one-MTU standdown is judged against the
// backlog of the qdisc as a whole, not the single bucket.
func (f *fqFlow) backlogBytes() int { return f.q.totalBytes }

// dropPkt implements codelQueue.
func (f *fqFlow) dropPkt(pkt *Packet) {
	f.q.stats.noteAQMDrop(pkt)
	pkt.Recycle()
}

// markPkt implements codelQueue.
func (f *fqFlow) markPkt(pkt *Packet) {
	pkt.CE = true
	f.q.stats.noteMark(pkt)
}

// fqList is an intrusive FIFO of flow buckets (the new and old scheduling
// lists of RFC 8290 §4.2).
type fqList struct {
	head, tail *fqFlow
}

func (l *fqList) push(f *fqFlow) {
	f.next = nil
	if l.tail == nil {
		l.head = f
	} else {
		l.tail.next = f
	}
	l.tail = f
}

func (l *fqList) pop() *fqFlow {
	f := l.head
	if f == nil {
		return nil
	}
	l.head = f.next
	if l.head == nil {
		l.tail = nil
	}
	f.next = nil
	return f
}

func (l *fqList) empty() bool { return l.head == nil }

// FQCoDel is the FlowQueue-CoDel discipline of RFC 8290, Linux's default
// qdisc: arriving packets are hashed by their Flow id into one of a fixed
// set of buckets, each bucket runs its own instance of the RFC 8289 CoDel
// control law (the codelState/codelLaw machinery shared with CoDel, in drop
// or ECN-mark mode), and buckets are served by deficit round robin with the
// new/old list discipline of §4.2: a bucket that becomes active joins the
// new list and is served ahead of old buckets until its first quantum is
// spent, which gives sparse flows (a web transfer's request, a DNS lookup)
// near-zero queueing delay while bulk flows share the remaining capacity
// equally.
//
// Aggregate packet/byte bounds are enforced by the overflow law of §4.1:
// when a bound is exceeded the head packet of the fattest bucket (largest
// byte backlog, ties to the lowest bucket index for determinism) is
// dropped — which may be the packet that just arrived, but usually is not,
// so unlike droptail the flow that caused the congestion pays for it.
// Overflow drops are counted as TailDrops: they are buffer-pressure drops,
// not CoDel-law drops, and keeping the split lets the conformance suite
// state one conservation invariant for every discipline.
//
// Everything the discipline does — the hash (fixed seed), DRR rotation,
// per-bucket CoDel instants — is a pure function of the arrival schedule on
// the virtual clock, so fq_codel cells inherit the byte-identical
// reproducibility of the rest of the simulator.
type FQCoDel struct {
	law        codelLaw
	quantum    int
	maxPackets int
	maxBytes   int

	flows      []fqFlow // fixed at construction; intrusive links point into it
	newList    fqList
	oldList    fqList
	totalLen   int
	totalBytes int
	stats      QueueStats
}

// newFQCoDel builds the fq_codel discipline s describes. All per-flow
// state is allocated here, once: the bucket slice never grows, so the
// steady-state hot path is allocation-free.
func newFQCoDel(s QdiscSpec) *FQCoDel {
	q := &FQCoDel{
		law:        s.codelLaw(),
		quantum:    orDefault(s.Quantum, DefaultFQQuantum),
		maxPackets: s.Packets,
		maxBytes:   s.Bytes,
		flows:      make([]fqFlow, orDefault(s.Flows, DefaultFQFlows)),
	}
	for i := range q.flows {
		q.flows[i].q = q
	}
	return q
}

// bucket selects the flow bucket for a Flow id.
func (q *FQCoDel) bucket(flow uint64) *fqFlow {
	return &q.flows[fqHash(flow)%uint64(len(q.flows))]
}

// fattest returns the bucket with the largest byte backlog, ties broken
// toward the lowest index so the overflow victim is deterministic.
func (q *FQCoDel) fattest() *fqFlow {
	best := &q.flows[0]
	for i := 1; i < len(q.flows); i++ {
		if q.flows[i].ring.bytes > best.ring.bytes {
			best = &q.flows[i]
		}
	}
	return best
}

// Enqueue implements Qdisc: hash to a bucket, admit, activate the bucket on
// the new list if idle (RFC 8290 §4.2.1), then enforce the aggregate bounds
// by dropping from the fattest bucket (§4.1). The return value reports
// whether the arriving packet itself survived admission.
func (q *FQCoDel) Enqueue(pkt *Packet, now sim.Time) bool {
	f := q.bucket(pkt.Flow)
	pkt.enq = now
	f.ring.push(pkt)
	q.totalLen++
	q.totalBytes += pkt.Size
	q.stats.noteEnqueue(pkt, q.totalLen, q.totalBytes)
	if !f.queued {
		f.queued = true
		f.deficit = q.quantum
		q.newList.push(f)
	}
	admitted := true
	for (q.maxPackets > 0 && q.totalLen > q.maxPackets) ||
		(q.maxBytes > 0 && q.totalBytes > q.maxBytes) {
		victim := q.fattest().popPkt()
		if victim == pkt {
			admitted = false
		}
		q.stats.noteTailDrop(victim)
		victim.Recycle()
	}
	// A bucket emptied by the overflow law stays on its scheduling list;
	// the dequeue loop retires it when its turn comes, exactly as Linux
	// leaves an emptied flow on the flowchain.
	return admitted
}

// Dequeue implements Qdisc: the DRR loop of RFC 8290 §4.2.2. Serve the head
// of the new list, else the old list; a bucket with exhausted deficit is
// refilled by one quantum and rotated to the old-list tail; an emptied
// bucket from the new list is demoted to the old list (if one exists) so it
// re-earns "new" status only after going fully idle, while an emptied
// old-list bucket is retired. The survivor of the bucket's CoDel law is
// charged against its deficit and delivered.
func (q *FQCoDel) Dequeue(now sim.Time) *Packet {
	for {
		f := q.newList.head
		fromNew := true
		if f == nil {
			f = q.oldList.head
			fromNew = false
		}
		if f == nil {
			return nil
		}
		if f.deficit <= 0 {
			f.deficit += q.quantum
			if fromNew {
				q.newList.pop()
			} else {
				q.oldList.pop()
			}
			q.oldList.push(f)
			continue
		}
		pkt := f.state.dequeue(now, q.law, f)
		if pkt == nil {
			if fromNew {
				q.newList.pop()
				if !q.oldList.empty() {
					q.oldList.push(f)
				} else {
					f.queued = false
				}
			} else {
				q.oldList.pop()
				f.queued = false
			}
			continue
		}
		f.deficit -= pkt.Size
		q.stats.noteDeliver(pkt, now-pkt.enq)
		return pkt
	}
}

// Flush implements Qdisc: buckets are emptied in scheduling order (the new
// list, then the old list — each bucket's ring in FIFO order), and the
// scheduling lists are reset so the discipline is idle afterwards.
// Per-bucket CoDel state is left alone: it decays exactly as it would after
// a queue that naturally drained.
func (q *FQCoDel) Flush(fn func(*Packet)) {
	for _, l := range [2]*fqList{&q.newList, &q.oldList} {
		for {
			f := l.pop()
			if f == nil {
				break
			}
			f.queued = false
			f.deficit = 0
			for {
				pkt := f.popPkt()
				if pkt == nil {
					break
				}
				q.stats.noteFlush()
				fn(pkt)
			}
		}
	}
}

// ReleaseStorage implements Qdisc: every bucket's ring goes back.
func (q *FQCoDel) ReleaseStorage() {
	for i := range q.flows {
		q.flows[i].ring.release()
	}
}

// Len implements Qdisc.
func (q *FQCoDel) Len() int { return q.totalLen }

// Bytes implements Qdisc.
func (q *FQCoDel) Bytes() int { return q.totalBytes }

// QueueStats implements Qdisc.
func (q *FQCoDel) QueueStats() *QueueStats { return &q.stats }
