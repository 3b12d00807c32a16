package tcpsim

import (
	"errors"
	"fmt"

	"repro/internal/nsim"
	"repro/internal/reuse"
	"repro/internal/sim"
)

// fourTuple identifies a connection from the stack's perspective.
type fourTuple struct {
	local, remote nsim.AddrPort
}

// Stack is the per-namespace TCP engine: it demultiplexes incoming
// datagrams to connections and listeners. One namespace has at most one
// Stack.
type Stack struct {
	ns   *nsim.Namespace
	loop *sim.Loop
	cc   CongestionAlgorithm
	ecn  bool
	// conns is the connection table, made (or, on a pooled stack,
	// borrowed from the ConnPool) by the first connection; see addConn.
	conns     map[fourTuple]*Conn
	listeners map[nsim.AddrPort]func(*Conn)
	boundPort map[uint16]bool // listener ports already bound on the namespace
	// segs recycles Segments. The whole simulation is single-goroutine per
	// loop, so the free list needs no synchronization; a pool shared
	// between the simulation's stacks (NewStackPool) lets a segment
	// allocated by one endpoint be reused by the other.
	segs *SegmentPool
	// rxBatch is nonzero while a packet train is being delivered to this
	// stack's namespace (see Namespace.SetRxBatchHooks). During a train,
	// per-segment retransmission-timer rearms are deferred: each touched
	// connection is recorded once in rtoDirty and its timer is brought to
	// its final state in one pass when the train ends — the ACK-clock
	// analogue of a delayed-ACK aggregation, with identical timer deadlines
	// (the whole train arrives at one instant and the final RTO estimate is
	// what an undeferred rearm sequence would also have left armed).
	rxBatch  int
	rtoDirty []*Conn
	// connPool, when set, recycles fully closed connections back through
	// newConn (see ConnPool); nil keeps the allocate-per-connection behavior.
	connPool *ConnPool
	// rtoRetryCap overrides maxRTORetries for connections on this stack;
	// 0 keeps the default. Raised when the workload must survive scripted
	// outages longer than the default cap's backoff ladder.
	rtoRetryCap int
	// recvFn is the receive method bound once at construction, so Dial can
	// hand the same handler to every ephemeral bind instead of allocating a
	// per-dial closure (the many-flow workloads dial thousands of times per
	// cell).
	recvFn func(*nsim.Datagram)
}

// SegmentPool is a free list of recycled Segments, and the owner of the
// growable storage of the connections and segments drawn from it. Like
// nsim.PoolSet it may be threaded through many sequential simulations (it
// must never be shared across concurrently running loops), so warmup is
// paid once per worker rather than once per simulation.
type SegmentPool struct {
	free reuse.Free[Segment]
	// Connection- and segment-scoped arrays in power-of-two capacity
	// classes. A connection borrows its retransmit queue, SACK list and
	// reassembly buffer as they grow and hands them back at teardown, and
	// its send queue when it is recycled; a segment's SACK blocks go back
	// when the segment is. So a parked Conn or Segment holds no capacity,
	// and a warmed pool serves every later connection without allocating.
	rtx    reuse.Arrays[sentSeg]
	sacks  reuse.Arrays[SackRange]
	ooo    reuse.Arrays[*Segment]
	chunks reuse.Arrays[[]byte]
}

// Outstanding reports live pool segments (allocated and not yet recycled):
// every newSegment is balanced by exactly one final Segment.Release once
// all references drop, so zero at quiescence (all connections closed,
// nothing in flight) means no drop or teardown path leaked a reference.
func (p *SegmentPool) Outstanding() int64 { return p.free.Outstanding() }

// newSegment returns a zeroed segment with one reference (the creator's).
func (s *Stack) newSegment() *Segment {
	seg := s.segs.free.Get()
	if seg == nil {
		seg = &Segment{pool: s.segs}
	}
	seg.refs = 1
	return seg
}

// retain adds a reference to a pooled segment (e.g. a wire copy entering
// the network, or the receiver buffering it out of order).
func (seg *Segment) retain() {
	if seg.pool != nil {
		seg.refs++
	}
}

// Release drops one reference; the last release recycles the segment into
// its origin pool. Callers must be done reading the segment before
// releasing: recycling hands the Sack array back to the pool, where a
// later ACK reuses it. Hand-built (non-pooled) segments are ignored.
//
// Release implements netem.Payload: when a queue discipline (or any other
// network drop path) discards a wire copy in flight, the datagram carrying
// it gives the copy's reference back here.
func (seg *Segment) Release() {
	if seg.pool == nil {
		return
	}
	if seg.refs--; seg.refs > 0 {
		return
	}
	// Data aliases the sending connection's buffer (see Conn.pump), whose
	// other segments may still be in flight: it is dropped, not reused.
	pool := seg.pool
	pool.sacks.Put(seg.Sack)
	*seg = Segment{pool: pool}
	pool.free.Put(seg)
}

// Clone implements netem.Payload: when the network duplicates a wire copy
// (netem's DuplicateBox), the duplicate gets a reference of its own, so
// both copies can be delivered or dropped in any order and the pool ledger
// still balances.
func (seg *Segment) Clone() any {
	seg.retain()
	return seg
}

// SetCongestion selects the congestion-control algorithm for connections
// created after the call (default Reno).
func (s *Stack) SetCongestion(cc CongestionAlgorithm) { s.cc = cc }

// Congestion reports the stack's configured algorithm.
func (s *Stack) Congestion() CongestionAlgorithm { return s.cc }

// SetECN enables ECN (RFC 3168) for connections created after the call:
// outgoing SYNs offer it, incoming ECN-setup SYNs are accepted, and
// negotiated connections send ECT datagrams and react to echoed CE marks
// with a once-per-RTT window reduction instead of a retransmission.
// Default off, which leaves the wire behavior bit-identical to a stack
// built before ECN existed.
func (s *Stack) SetECN(on bool) { s.ecn = on }

// ECN reports whether the stack negotiates ECN on new connections.
func (s *Stack) ECN() bool { return s.ecn }

// SetMaxRTORetries sets how many consecutive retransmission timeouts a
// connection rides out before tearing down (Linux's tcp_retries2 sysctl);
// 0 restores the default. Existing connections see the new cap on their
// next timeout. The default ladder (200ms min RTO doubling to 60s) gives
// up after roughly two minutes of silence; endpoints that must survive a
// longer scripted outage and resume on link-up raise the cap instead of
// disabling the timeout machinery.
func (s *Stack) SetMaxRTORetries(n int) {
	if n < 0 {
		n = 0
	}
	s.rtoRetryCap = n
}

// maxRetries resolves the stack's effective RTO retry cap.
func (s *Stack) maxRetries() int {
	if s.rtoRetryCap > 0 {
		return s.rtoRetryCap
	}
	return maxRTORetries
}

// NewStack creates a TCP engine for the namespace with a private segment
// pool.
func NewStack(ns *nsim.Namespace) *Stack {
	return NewStackPool(ns, nil)
}

// NewStackPool creates a TCP engine drawing segments from the given pool;
// nil gets a private pool. Stacks on the same loop can share one pool.
func NewStackPool(ns *nsim.Namespace, segs *SegmentPool) *Stack {
	if segs == nil {
		segs = &SegmentPool{}
	}
	s := &Stack{
		ns:        ns,
		loop:      ns.Network().Loop(),
		listeners: make(map[nsim.AddrPort]func(*Conn)),
		boundPort: make(map[uint16]bool),
		segs:      segs,
	}
	s.recvFn = s.receive
	ns.SetRxBatchHooks(s.beginRxBatch, s.endRxBatch)
	return s
}

// beginRxBatch marks the start of a packet-train delivery.
func (s *Stack) beginRxBatch() { s.rxBatch++ }

// endRxBatch finishes a train: every connection the train touched gets one
// final retransmission-timer pass, in the order the train reached them.
func (s *Stack) endRxBatch() {
	s.rxBatch--
	for i, c := range s.rtoDirty {
		s.rtoDirty[i] = nil
		c.rtoDirty = false
		c.flushRTO()
	}
	s.rtoDirty = s.rtoDirty[:0]
}

// Namespace returns the stack's namespace.
func (s *Stack) Namespace() *nsim.Namespace { return s.ns }

// Segments exposes the stack's segment pool, for leak accounting in tests.
func (s *Stack) Segments() *SegmentPool { return s.segs }

// Loop returns the stack's event loop.
func (s *Stack) Loop() *sim.Loop { return s.loop }

// Listen registers accept for new connections to ap. A zero ap.Addr
// listens on every local address. accept is invoked once per established
// connection.
func (s *Stack) Listen(ap nsim.AddrPort, accept func(*Conn)) error {
	if accept == nil {
		return errors.New("tcpsim: Listen with nil accept")
	}
	if _, ok := s.listeners[ap]; ok {
		return fmt.Errorf("tcpsim: already listening on %s", ap)
	}
	if !s.boundPort[ap.Port] {
		// Bind the port as a wildcard on the namespace once; the stack
		// demuxes to exact listeners itself so that ReplayShell can listen
		// on hundreds of (addr, port) pairs cheaply.
		if err := s.ns.Bind(nsim.AddrPort{Addr: 0, Port: ap.Port}, s.receive); err != nil {
			return err
		}
		s.boundPort[ap.Port] = true
	}
	s.listeners[ap] = accept
	return nil
}

// Dial opens a connection from laddr (a local address of the namespace) to
// raddr. The returned Conn is in SYN-SENT state; OnEstablished fires when
// the handshake completes. Data written before establishment is buffered.
func (s *Stack) Dial(laddr nsim.Addr, raddr nsim.AddrPort) (*Conn, error) {
	// The ephemeral bind shares the stack's demux handler: the conn is in
	// s.conns before any segment can arrive (no events run in between), so
	// receive finds it by four-tuple exactly as a listener-side conn, and
	// the dial path allocates no per-connection closure.
	lap, err := s.ns.BindEphemeral(laddr, s.recvFn)
	if err != nil {
		return nil, err
	}
	c := newConn(s, lap, raddr, false)
	s.addConn(fourTuple{lap, raddr}, c)
	c.sendSYN()
	return c, nil
}

// DeliverIntercepted feeds a datagram that was transparently redirected to
// this stack (via nsim's intercept hook) as though it had arrived on a
// listening port. RecordShell uses this to terminate connections addressed
// to arbitrary origin addresses.
func (s *Stack) DeliverIntercepted(dg *nsim.Datagram) { s.receive(dg) }

// receive demuxes an inbound datagram on a listening port. Every exit path
// releases the wire copy's segment reference: a segment the connection
// needs to keep (out-of-order reassembly) takes its own reference.
func (s *Stack) receive(dg *nsim.Datagram) {
	seg, ok := dg.Payload.(*Segment)
	if !ok {
		return
	}
	key := fourTuple{local: dg.Dst, remote: dg.Src}
	if dg.Corrupt {
		// Checksum failure: the segment is discarded before any TCP
		// processing — no ack, no state change — exactly as a hardware
		// checksum drop. The loss is only discovered by the sender's
		// retransmission machinery.
		if c, ok := s.conns[key]; ok {
			c.stats.ChecksumDrops++
		}
		seg.Release()
		return
	}
	if c, ok := s.conns[key]; ok {
		c.handleSegment(seg, dg.CE)
		seg.Release()
		return
	}
	// New connection? Must be a SYN to a listener.
	if seg.Flags&FlagSYN == 0 || seg.Flags&FlagACK != 0 {
		seg.Release()
		return // stray segment for a dead connection; drop
	}
	accept := s.lookupListener(dg.Dst)
	if accept == nil {
		// The port is bound for another address, but nothing listens on
		// this one: refuse the SYN, as a Linux host does.
		s.refuse(dg, seg)
		seg.Release()
		return
	}
	c := newConn(s, dg.Dst, dg.Src, true)
	c.acceptFn = accept
	s.addConn(key, c)
	c.handleSegment(seg, dg.CE)
	seg.Release()
}

// refuse answers a SYN that no listener accepts with an RST|ACK that has
// sequence number 0 and acknowledges the SYN (RFC 9293 §3.10.7.1), so the
// dialer fails in one round trip instead of riding its SYN
// retransmissions to the end.
func (s *Stack) refuse(dg *nsim.Datagram, syn *Segment) {
	rst := s.newSegment() // its one reference goes with the wire copy
	rst.Flags = FlagRST | FlagACK
	rst.Ack = syn.Seq + syn.SeqLen()
	if s.send(dg.Dst, dg.Src, dg.Flow, false, rst) != nil {
		rst.Release() // the wire copy never entered the network
	}
}

func (s *Stack) lookupListener(ap nsim.AddrPort) func(*Conn) {
	if fn, ok := s.listeners[ap]; ok {
		return fn
	}
	if fn, ok := s.listeners[nsim.AddrPort{Addr: 0, Port: ap.Port}]; ok {
		return fn
	}
	return nil
}

// addConn enters a new connection in the table, making the table on first
// use: a pooled stack borrows it from its ConnPool (see ReleaseStorage).
func (s *Stack) addConn(key fourTuple, c *Conn) {
	if s.conns == nil {
		s.conns = s.connPool.table()
	}
	s.conns[key] = c
}

// drop removes a closed connection from the table and releases its
// ephemeral port.
func (s *Stack) drop(c *Conn) {
	delete(s.conns, fourTuple{c.local, c.remote})
	if !c.server {
		s.ns.Unbind(c.local)
	}
}

// send transmits a segment from src to dst in a datagram of the given
// flow, ECN-capable when ect is set. The datagram comes from the network's
// pool; nsim recycles it once it is delivered or dropped.
func (s *Stack) send(src, dst nsim.AddrPort, flow uint64, ect bool, seg *Segment) error {
	dg := s.ns.Network().NewDatagram()
	dg.Src = src
	dg.Dst = dst
	dg.Size = seg.WireSize()
	dg.Flow = flow
	dg.Seq = int64(seg.Seq)
	dg.ECT = ect
	dg.Payload = seg
	return s.ns.Send(dg)
}

// Conns reports the number of live connections.
func (s *Stack) Conns() int { return len(s.conns) }
