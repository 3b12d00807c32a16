package tcpsim

import (
	"cmp"
	"errors"
	"slices"

	"repro/internal/nsim"
	"repro/internal/sim"
)

// State is a connection's lifecycle state.
type State int

// Connection states (a condensed version of the TCP state machine; the
// TIME-WAIT and CLOSE-WAIT distinctions do not affect any measurement this
// toolkit makes).
const (
	StateSynSent State = iota
	StateSynRcvd
	StateEstablished
	StateClosing // FIN sent, waiting for everything to drain
	StateClosed
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateSynSent:
		return "syn-sent"
	case StateSynRcvd:
		return "syn-rcvd"
	case StateEstablished:
		return "established"
	case StateClosing:
		return "closing"
	case StateClosed:
		return "closed"
	}
	return "invalid"
}

// RTO bounds (RFC 6298 uses a 1 s minimum; 200 ms is the widely deployed
// Linux value and keeps simulated tail latencies realistic).
const (
	minRTO         = 200 * sim.Millisecond
	maxRTO         = 60 * sim.Second
	initialRTO     = 1 * sim.Second
	rtoGranularity = 50 * sim.Millisecond // RFC 6298's "G"
	// maxRTORetries bounds consecutive timeouts without forward progress
	// (Linux's tcp_retries2 / tcp_orphan_retries). Without a cap, a
	// connection whose peer closed and vanished — e.g. the last ACK of a FIN
	// exchange was dropped, so this side sits in StateClosing retransmitting
	// into a port that no longer exists — retransmits forever at maxRTO and
	// the event loop never drains.
	maxRTORetries = 8
)

// Stats counts per-connection activity.
type Stats struct {
	BytesSent       uint64
	BytesReceived   uint64
	SegmentsSent    uint64
	SegmentsRcvd    uint64
	Retransmits     uint64
	FastRetransmits uint64
	Timeouts        uint64
	// ECNMarksSeen counts inbound segments that arrived CE-marked;
	// ECNReductions counts the once-per-RTT congestion-window cuts the
	// echoed marks caused on the sending side (RFC 3168 §6.1.2).
	ECNMarksSeen  uint64
	ECNReductions uint64
	// DupBytesRcvd counts payload bytes that arrived after already being
	// delivered (spurious retransmissions, network duplication): wire
	// bytes this receiver consumed that added nothing to the stream.
	// BytesReceived counts each stream byte once, so goodput-based
	// fairness reads BytesReceived while raw delivered-bytes fairness
	// (a queue's DequeuedBytes) silently includes these.
	DupBytesRcvd uint64
	// ChecksumDrops counts inbound segments discarded because the
	// carrying datagram was corrupted in flight (netem CorruptBox).
	ChecksumDrops uint64
	// SRTT is the smoothed RTT estimate (zero before the first sample).
	SRTT sim.Time
}

// sentSeg tracks an unacknowledged segment for retransmission.
type sentSeg struct {
	seg      *Segment
	sentAt   sim.Time
	rexmited bool // ever retransmitted (Karn: no RTT sample)
	// sacked marks the segment as held by the receiver (SACK); it must not
	// be retransmitted and does not count toward the pipe.
	sacked bool
	// inFlight marks the segment as currently believed to be in the
	// network. Loss detection (SACK holes, RTO) clears it; pump()
	// retransmits segments that are neither sacked nor in flight.
	inFlight bool
}

// Conn is one endpoint of a TCP connection. All methods must be called from
// event-loop context (the entire simulation is single-goroutine).
type Conn struct {
	stack  *Stack
	local  nsim.AddrPort
	remote nsim.AddrPort
	server bool
	flow   uint64
	state  State

	// Sender state.
	sndUna uint64 // oldest unacknowledged sequence number
	sndNxt uint64 // next sequence number to use
	// The send queue is a FIFO of immutable byte chunks rather than one
	// flat buffer, so stable application data (WriteStable) queues without
	// being copied. sendHead indexes the first live chunk, sendOff the
	// consumed prefix of that chunk, and sendLen the total unsegmented
	// bytes. Segmentation (pump) is unaffected by chunk boundaries: a
	// segment normally aliases a chunk slice and only a segment spanning a
	// boundary gathers bytes into its own array.
	sendq    [][]byte
	sendHead int
	sendOff  int
	sendLen  int
	rtxq     []sentSeg
	cwnd     int
	ssthresh int
	dupAcks  int
	// Congestion-control algorithm state.
	cc    CongestionAlgorithm
	cubic cubicState
	// pipeBytes incrementally tracks pipe(): sequence space of tracked
	// segments that are in flight and not SACKed. Kept in sync by every
	// transition of a sentSeg's inFlight/sacked bits.
	pipeBytes int
	// holeIdx is a scan cursor into rtxq for retransmitNextHole; reset
	// whenever new losses are marked or the queue is compacted.
	holeIdx int
	// SACK-based fast recovery.
	inRecovery    bool
	recoverSeq    uint64
	recoveryStart sim.Time
	highSack      uint64 // highest sequence the receiver has SACKed
	// FIN bookkeeping.
	appClosed bool
	finSent   bool
	// ECN state (RFC 3168). ectOK records a successful handshake
	// negotiation; ecnRecover is the sender's once-per-RTT guard (further
	// ECE echoes are ignored until this sequence is cumulatively acked);
	// cwrPending asks the next outgoing sequence-consuming segment to
	// carry CWR, telling the receiver its echo was heard.
	ectOK      bool
	ecnRecover uint64
	cwrPending bool

	// Receiver state.
	rcvNxt uint64
	// ceEcho makes every outgoing ACK carry ECE, from the first CE-marked
	// arrival until the sender answers with CWR (RFC 3168 §6.1.3).
	ceEcho bool
	// ooo is the reassembly buffer: out-of-order segments in ascending
	// sequence order, at most one per sequence number. The order is what
	// makes every release from it deterministic (see releaseStaleOOO).
	ooo []*Segment
	// sackList is the sorted, disjoint set of out-of-order byte ranges the
	// receiver holds, maintained incrementally so ACK generation is O(1)
	// in the common case.
	sackList   []SackRange
	peerFin    bool
	peerFinSeq uint64

	// RTO state. rtoTimer is bound once to onRTO and rearmed in place, so
	// the per-ACK timer reset (the hottest timer path in the simulator)
	// allocates nothing. rtoDirty marks a deferred rearm while a packet
	// train is being delivered (see Stack.endRxBatch).
	srtt, rttvar sim.Time
	rto          sim.Time
	rtoTimer     sim.Timer
	rtoDirty     bool
	rtoRetries   int // consecutive RTOs since the last cumulative-ack advance

	stats Stats

	acceptFn      func(*Conn)
	onEstablished func()
	onData        func([]byte)
	onDataC       func(*Conn, []byte)
	onClose       func(error)
	onCloseC      func(*Conn, error)
	closedErr     error
	closeNotified bool

	// pooledFree marks a connection currently sitting in a ConnPool's free
	// list; it guards against double-Recycle and use-after-recycle.
	pooledFree bool
}

// newConn returns a connection in its opening state, recycled from the
// stack's ConnPool when it has one parked. Fresh and recycled connections
// alike get the whole struct assigned, so no field can survive from a
// connection's previous life; a recycled one holds no storage (its queues
// went back to the segment pool) and keeps only its RTO timer, which is
// bound to its onRTO and generation-checked, so it is rebound only when
// the connection moves to another loop.
func newConn(s *Stack, local, remote nsim.AddrPort, server bool) *Conn {
	var c *Conn
	if s.connPool != nil {
		c = s.connPool.free.Get()
	}
	if c == nil {
		c = new(Conn)
	}
	timer := c.rtoTimer
	if c.stack == nil || c.stack.loop != s.loop {
		timer = s.loop.NewTimer(c.onRTO)
	}
	st := StateSynSent
	if server {
		st = StateSynRcvd
	}
	*c = Conn{
		cc:       s.cc,
		stack:    s,
		local:    local,
		remote:   remote,
		server:   server,
		flow:     s.ns.Network().NextFlow(),
		state:    st,
		cwnd:     InitialWindow,
		ssthresh: ReceiveWindow,
		rto:      initialRTO,
		rtoTimer: timer,
	}
	return c
}

// LocalAddr returns the connection's local endpoint.
func (c *Conn) LocalAddr() nsim.AddrPort { return c.local }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Statistics returns a snapshot of the connection's counters.
func (c *Conn) Statistics() Stats {
	st := c.stats
	st.SRTT = c.srtt
	return st
}

// Cwnd returns the current congestion window in bytes, for tests and
// instrumentation.
func (c *Conn) Cwnd() int { return c.cwnd }

// Flow returns the network flow identifier stamped on every datagram this
// connection sends. Queue instrumentation (netem.QueueStats.Flows) keys its
// per-flow counters by this value, so workload drivers use it to attribute
// queue behaviour back to an application class.
func (c *Conn) Flow() uint64 { return c.flow }

// ECNNegotiated reports whether the handshake agreed on ECN: this side
// sends ECT datagrams and the pair exchanges CE echoes per RFC 3168.
func (c *Conn) ECNNegotiated() bool { return c.ectOK }

// OnEstablished registers a callback invoked once when the handshake
// completes. If the connection is already established it fires on the next
// loop tick.
func (c *Conn) OnEstablished(fn func()) {
	if c.state == StateEstablished || c.state == StateClosing {
		c.stack.loop.Schedule(0, func(sim.Time) { fn() })
		return
	}
	c.onEstablished = fn
}

// OnData registers the in-order data delivery callback.
func (c *Conn) OnData(fn func([]byte)) { c.onData = fn }

// OnDataConn registers a data callback that also receives the connection,
// so a server can share one callback value across every conn it accepts
// instead of closing over each. Takes precedence over OnData if both are
// set.
func (c *Conn) OnDataConn(fn func(*Conn, []byte)) { c.onDataC = fn }

// OnClose registers a callback invoked when the connection fully closes;
// err is nil for a clean close.
func (c *Conn) OnClose(fn func(error)) {
	if c.state == StateClosed {
		err := c.closedErr
		c.stack.loop.Schedule(0, func(sim.Time) { fn(err) })
		return
	}
	c.onClose = fn
}

// OnCloseConn is OnClose's conn-passing form, sharable across conns like
// OnDataConn. Takes precedence over OnClose if both are set.
func (c *Conn) OnCloseConn(fn func(*Conn, error)) {
	if c.state == StateClosed {
		c.stack.loop.Schedule(0, func(sim.Time) { fn(c, c.closedErr) })
		return
	}
	c.onCloseC = fn
}

// Write queues application data for transmission, copying p (the caller
// may reuse it). Data written before the handshake completes is buffered.
func (c *Conn) Write(p []byte) error {
	if c.appClosed || c.state == StateClosed {
		return errors.New("tcpsim: write on closed connection")
	}
	c.enqueueData(append([]byte(nil), p...))
	return nil
}

// WriteStable queues application data for transmission without copying.
// The caller must guarantee each chunk is immutable for as long as any
// segment referencing it may be retransmitted — e.g. a recorded response
// body served from an archive. Segments alias the chunks directly, which
// removes the dominant per-byte copy from the replay server's send path.
// All chunks are queued before transmission starts, so the wire traffic is
// identical to a single Write of their concatenation.
func (c *Conn) WriteStable(chunks ...[]byte) error {
	if c.appClosed || c.state == StateClosed {
		return errors.New("tcpsim: write on closed connection")
	}
	for _, p := range chunks {
		if len(p) > 0 {
			c.sendq = c.stack.segs.chunks.Append(c.sendq, p)
			c.sendLen += len(p)
		}
	}
	c.pump()
	return nil
}

func (c *Conn) enqueueData(chunk []byte) {
	if len(chunk) > 0 {
		c.sendq = c.stack.segs.chunks.Append(c.sendq, chunk)
		c.sendLen += len(chunk)
	}
	c.pump()
}

// nextSegment slices (or, across a chunk boundary, gathers) the next n
// bytes of the send queue into seg.Data.
func (c *Conn) nextSegment(seg *Segment, n int) {
	head := c.sendq[c.sendHead][c.sendOff:]
	if len(head) >= n {
		seg.Data = head[:n:n]
		c.advanceSendq(n)
		return
	}
	data := make([]byte, 0, n)
	for len(data) < n {
		head = c.sendq[c.sendHead][c.sendOff:]
		take := n - len(data)
		if take > len(head) {
			take = len(head)
		}
		data = append(data, head[:take]...)
		c.advanceSendq(take)
	}
	seg.Data = data
}

// advanceSendq consumes n bytes of the head chunk, popping it when done.
func (c *Conn) advanceSendq(n int) {
	c.sendOff += n
	c.sendLen -= n
	if c.sendOff == len(c.sendq[c.sendHead]) {
		c.sendq[c.sendHead] = nil
		c.sendHead++
		c.sendOff = 0
		if c.sendHead == len(c.sendq) {
			c.sendq = c.sendq[:0]
			c.sendHead = 0
		}
	}
}

// Close initiates a graceful close: buffered data is sent, followed by a
// FIN.
func (c *Conn) Close() {
	if c.appClosed {
		return
	}
	c.appClosed = true
	c.pump()
}

// Abort tears the connection down immediately, sending an RST.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	rst := c.stack.newSegment()
	rst.Flags = FlagRST
	rst.Seq = c.sndNxt
	rst.Ack = c.rcvNxt
	c.transmit(rst)
	rst.Release() // untracked: drop the creator's reference
	c.teardown(errors.New("tcpsim: connection aborted"))
}

// sendSYN starts the client handshake.
func (c *Conn) sendSYN() {
	syn := c.stack.newSegment()
	syn.Flags = FlagSYN
	if c.stack.ecn {
		// ECN-setup SYN (RFC 3168 §6.1.1): offer ECN with ECE|CWR.
		syn.Flags |= FlagECE | FlagCWR
	}
	c.sndNxt = 1
	c.track(syn)
	c.transmit(syn)
	c.armRTO()
}

// inflight is the number of unacknowledged bytes in the network.
func (c *Conn) inflight() int { return int(c.sndNxt - c.sndUna) }

// pump transmits as much buffered data as the congestion window allows,
// then a FIN if the application has closed and the buffer drained. During
// fast recovery it first fills SACK holes (RFC 6675-style pipe algorithm).
func (c *Conn) pump() {
	if c.state != StateEstablished && c.state != StateClosing {
		return // handshake still in progress; Write buffered the data
	}
	// Retransmit inferred-lost segments before sending new data.
	for c.pipe()+MSS <= c.cwnd {
		if !c.retransmitNextHole() {
			break
		}
	}
	for c.sendLen > 0 && c.pipe()+MSS <= c.cwnd {
		n := c.sendLen
		if n > MSS {
			n = MSS
		}
		seg := c.stack.newSegment()
		seg.Flags = FlagACK | c.ecnFlags()
		seg.Seq = c.sndNxt
		seg.Ack = c.rcvNxt
		c.nextSegment(seg, n)
		c.sndNxt += uint64(n)
		c.track(seg)
		c.transmit(seg)
		c.stats.BytesSent += uint64(n)
	}
	if c.appClosed && c.sendLen == 0 && !c.finSent {
		fin := c.stack.newSegment()
		fin.Flags = FlagFIN | FlagACK | c.ecnFlags()
		fin.Seq = c.sndNxt
		fin.Ack = c.rcvNxt
		c.sndNxt++
		c.finSent = true
		if c.state == StateEstablished {
			c.state = StateClosing
		}
		c.track(fin)
		c.transmit(fin)
	}
	if c.inflight() > 0 {
		c.armRTO()
	}
	c.maybeFinish()
}

// ecnFlags assembles the ECN bits for a new sequence-consuming segment:
// ECE while this side is echoing CE marks, and a one-shot CWR answering
// the peer's echo after a window reduction.
func (c *Conn) ecnFlags() Flags {
	if !c.ectOK {
		return 0
	}
	var f Flags
	if c.ceEcho {
		f |= FlagECE
	}
	if c.cwrPending {
		f |= FlagCWR
		c.cwrPending = false
	}
	return f
}

// track records a sequence-consuming segment for retransmission.
func (c *Conn) track(seg *Segment) {
	c.rtxq = c.stack.segs.rtx.Append(c.rtxq, sentSeg{seg: seg, sentAt: c.stack.loop.Now(), inFlight: true})
	c.pipeBytes += int(seg.SeqLen())
}

// transmit sends a segment, counting it. Each wire copy entering the
// network takes a segment reference, released by the receiving stack once
// the copy has been handled; a copy dropped inside the network releases
// its reference through the datagram carrying it (Segment.Release as a
// netem.Payload), so dropped segments recycle too.
func (c *Conn) transmit(seg *Segment) {
	c.stats.SegmentsSent++
	seg.retain()
	// Every datagram of a negotiated connection is ECT, pure ACKs
	// included (the ECN++ stance of RFC 8311 experiments, rather than
	// RFC 3168's data-only ECT): on a marking-AQM path the connection
	// then never loses a packet to the control law, only to buffer
	// overflow. The SYN predates negotiation, so it is never ECT.
	//
	// Route errors (no route mid-simulation) surface as a teardown rather
	// than a panic: the shell topology is static, so this indicates the
	// experiment destroyed the namespace early.
	if err := c.stack.send(c.local, c.remote, c.flow, c.ectOK, seg); err != nil {
		seg.Release() // the wire copy never entered the network
		c.teardown(err)
	}
}

// handleSegment is the single entry point for inbound segments. ce reports
// that the datagram carrying this wire copy arrived CE-marked.
func (c *Conn) handleSegment(seg *Segment, ce bool) {
	if c.state == StateClosed {
		return
	}
	c.stats.SegmentsRcvd++
	if seg.Flags&FlagRST != 0 {
		c.teardown(errors.New("tcpsim: connection reset by peer"))
		return
	}

	switch c.state {
	case StateSynSent:
		// Expect SYN-ACK.
		if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK != 0 && seg.Ack >= 1 {
			// ECE alone on the SYN-ACK accepts our ECN offer (ECE|CWR
			// would be another offer, not an acceptance).
			if c.stack.ecn && seg.Flags&(FlagECE|FlagCWR) == FlagECE {
				c.ectOK = true
			}
			c.rcvNxt = seg.Seq + 1
			c.processAck(seg.Ack, false, false)
			c.establish()
			c.sendAck()
			c.pump()
		}
		return
	case StateSynRcvd:
		if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
			// (Possibly retransmitted) client SYN: reply SYN-ACK.
			if c.sndNxt == 0 {
				c.rcvNxt = seg.Seq + 1
				synAck := c.stack.newSegment()
				synAck.Flags = FlagSYN | FlagACK
				if c.stack.ecn && seg.Flags&(FlagECE|FlagCWR) == FlagECE|FlagCWR {
					// Accept the ECN-setup SYN (RFC 3168 §6.1.1).
					c.ectOK = true
					synAck.Flags |= FlagECE
				}
				synAck.Ack = c.rcvNxt
				c.sndNxt = 1
				c.track(synAck)
				c.transmit(synAck)
				c.armRTO()
			} else if len(c.rtxq) > 0 {
				// Retransmitted SYN: re-send the SYN-ACK.
				c.markSegLost(0)
				c.retransmitNextHole()
			}
			return
		}
		if seg.Flags&FlagACK != 0 && seg.Ack >= 1 {
			c.processAck(seg.Ack, false, false)
			c.establish()
			// Fall through to process any piggybacked data.
		} else {
			return
		}
	}

	if c.state == StateClosed {
		return // a callback above (e.g. Abort inside OnEstablished) closed us
	}
	// Established / closing path. ECN receiver side first: a CWR from the
	// peer acknowledges our echo (stop it), a CE mark on this arrival
	// (re)starts it — in that order, so a segment carrying both leaves the
	// echo running for the fresh mark.
	if c.ectOK {
		if seg.Flags&FlagCWR != 0 {
			c.ceEcho = false
		}
		if ce {
			c.stats.ECNMarksSeen++
			c.ceEcho = true
		}
	}
	if seg.Flags&FlagACK != 0 {
		newSack := c.markSacked(seg.Sack)
		// Only a pure ACK (no sequence-consuming payload) can be a
		// duplicate ACK (RFC 5681): segments that carry data piggyback a
		// possibly stale ack number and must not trigger fast retransmit.
		c.processAck(seg.Ack, seg.SeqLen() == 0, newSack)
		// The ECN reaction runs after the cumulative ack has advanced, as
		// Linux does: an ECE arriving with the ack that completes the
		// previous reduction's window opens the gate for the next one.
		// SYN-flagged segments are excluded: a retransmitted SYN-ACK's ECE
		// is the negotiation-accept bit (RFC 3168 §6.1.1), not a
		// congestion echo.
		if c.state != StateClosed && c.ectOK &&
			seg.Flags&FlagECE != 0 && seg.Flags&FlagSYN == 0 {
			c.onECE()
		}
	}
	if c.state == StateClosed {
		return
	}
	if seg.SeqLen() > 0 && seg.Flags&FlagSYN == 0 {
		c.processData(seg)
	}
	c.pump()
}

// markSacked records receiver-held ranges against the retransmit queue. It
// reports whether the ranges carried previously unknown information — a
// range end above the old highSack, or a tracked segment newly marked
// receiver-held. Duplicate-ACK counting keys on this (RFC 6675's DupAck
// definition): an ack run caused by genuine loss keeps reporting new SACK
// coverage as later segments land, while re-acks of data the receiver
// already had (network duplication, a reorder-displaced copy arriving
// late) repeat known ranges and must not push the sender toward a spurious
// fast retransmit.
func (c *Conn) markSacked(ranges []SackRange) bool {
	if len(ranges) == 0 {
		return false
	}
	newInfo := false
	for _, r := range ranges {
		if r.End > c.highSack {
			c.highSack = r.End
			newInfo = true
		}
	}
	for i := range c.rtxq {
		ss := &c.rtxq[i]
		if ss.sacked {
			continue
		}
		start, end := ss.seg.Seq, ss.seg.Seq+ss.seg.SeqLen()
		for _, r := range ranges {
			if start >= r.Start && end <= r.End {
				ss.sacked = true
				newInfo = true
				if ss.inFlight {
					c.pipeBytes -= int(ss.seg.SeqLen())
				}
				break
			}
		}
	}
	if c.inRecovery {
		c.markLost()
	}
	return newInfo
}

// markSegLost clears one segment's in-flight bit, keeping the pipe counter
// and the hole-scan cursor consistent.
func (c *Conn) markSegLost(i int) {
	ss := &c.rtxq[i]
	if ss.inFlight && !ss.sacked {
		c.pipeBytes -= int(ss.seg.SeqLen())
	}
	ss.inFlight = false
	if i < c.holeIdx {
		c.holeIdx = i
	}
}

// markLost clears the in-flight bit of original transmissions that have
// SACKed data above them — the SACK analogue of three-dup-ACK loss
// inference. Retransmissions made during this recovery (sentAt after
// recoveryStart) are left in flight.
func (c *Conn) markLost() {
	for i := range c.rtxq {
		ss := &c.rtxq[i]
		if ss.sacked || !ss.inFlight {
			continue
		}
		end := ss.seg.Seq + ss.seg.SeqLen()
		if end <= c.highSack && ss.sentAt <= c.recoveryStart {
			ss.inFlight = false
			c.pipeBytes -= int(ss.seg.SeqLen())
			if i < c.holeIdx {
				c.holeIdx = i
			}
		}
	}
}

// pipe is the sender's estimate of bytes outstanding in the network:
// tracked segments that are in flight and not SACKed. Maintained
// incrementally (see pipeBytes) so the send path stays O(1) per segment.
func (c *Conn) pipe() int { return c.pipeBytes }

// establish transitions to the established state and fires callbacks.
func (c *Conn) establish() {
	if c.state != StateSynSent && c.state != StateSynRcvd {
		return
	}
	c.state = StateEstablished
	if c.server && c.acceptFn != nil {
		fn := c.acceptFn
		c.acceptFn = nil
		fn(c)
	}
	if c.onEstablished != nil {
		fn := c.onEstablished
		c.onEstablished = nil
		fn()
	}
}

// processAck handles the cumulative acknowledgment field. pureAck reports
// whether the carrying segment consumed no sequence space (only such
// segments count toward duplicate-ACK loss detection); newSack reports
// whether the segment's SACK blocks carried previously unknown coverage
// (see markSacked).
func (c *Conn) processAck(ack uint64, pureAck, newSack bool) {
	if ack > c.sndNxt {
		return // acks data we never sent; ignore
	}
	if ack > c.sndUna {
		newly := int(ack - c.sndUna)
		c.sndUna = ack
		c.dupAcks = 0
		c.rtoRetries = 0
		c.reapAcked(ack)
		if c.inRecovery {
			if ack >= c.recoverSeq {
				// Full ACK: exit recovery.
				c.exitRecovery()
			}
			// Partial ACK: stay in recovery; pump() fills remaining holes.
		} else {
			c.growCwndCC(newly)
		}
		if c.inflight() > 0 {
			c.armRTO()
		} else {
			c.stopRTO()
		}
		c.maybeFinish()
		return
	}
	// Duplicate ACK: only pure ACKs with data outstanding, and only when
	// the ack delivered previously unknown SACK coverage (RFC 6675's
	// DupAck). A genuine loss produces an ack run whose SACK blocks keep
	// growing as later segments land; re-acks of data the receiver already
	// held — duplicated wire copies, a reorder-displaced segment arriving
	// after its ack run resolved — repeat known ranges (or carry none) and
	// are no evidence of loss, so counting them triggered spurious fast
	// retransmits under reordering and duplication.
	if pureAck && newSack && ack == c.sndUna && c.inflight() > 0 {
		c.dupAcks++
		if !c.inRecovery && c.dupAcks == 3 {
			c.enterFastRecovery()
		}
	}
}

// onECE is the sender's ECN congestion response (RFC 3168 §6.1.2): reduce
// the congestion window as a loss would — same multiplicative decrease,
// through the configured algorithm — but retransmit nothing, since the
// marked packet was delivered. The reduction happens at most once per RTT:
// echoes are ignored until everything outstanding at the previous
// reduction has been acked, and while loss recovery is already reducing.
func (c *Conn) onECE() {
	if c.sndUna < c.ecnRecover || c.inRecovery {
		return
	}
	c.stats.ECNReductions++
	c.ssthresh = c.onLossCC()
	c.cwnd = c.ssthresh
	c.ecnRecover = c.sndNxt
	c.cwrPending = true
}

// exitRecovery leaves fast recovery, deflating the window to ssthresh.
func (c *Conn) exitRecovery() {
	c.inRecovery = false
	c.cwnd = c.ssthresh
}

// enterFastRecovery performs fast retransmit (three duplicate ACKs).
func (c *Conn) enterFastRecovery() {
	c.inRecovery = true
	c.recoverSeq = c.sndNxt
	c.recoveryStart = c.stack.loop.Now()
	c.stats.FastRetransmits++
	c.markLost()
	if c.pipe() == int(c.sndNxt-c.sndUna) && len(c.rtxq) > 0 {
		// No SACK information marked anything lost (pure duplicate ACKs):
		// infer the head segment is lost, as classic fast retransmit does.
		for i := range c.rtxq {
			if !c.rtxq[i].sacked {
				c.markSegLost(i)
				break
			}
		}
	}
	c.ssthresh = c.onLossCC()
	c.cwnd = c.ssthresh
	c.retransmitNextHole() // fill at least the first hole immediately
}

// retransmitNextHole re-sends the oldest segment that is neither SACKed nor
// believed in flight. It reports whether a segment was sent.
func (c *Conn) retransmitNextHole() bool {
	for ; c.holeIdx < len(c.rtxq); c.holeIdx++ {
		ss := &c.rtxq[c.holeIdx]
		if ss.sacked || ss.inFlight {
			continue
		}
		ss.inFlight = true
		c.pipeBytes += int(ss.seg.SeqLen())
		ss.rexmited = true
		ss.sentAt = c.stack.loop.Now()
		ss.seg.Ack = c.rcvNxt
		c.stats.Retransmits++
		c.transmit(ss.seg)
		c.armRTO()
		return true
	}
	return false
}

// reapAcked removes fully acknowledged segments from the retransmit queue
// and samples RTT from non-retransmitted ones (Karn's algorithm).
func (c *Conn) reapAcked(ack uint64) {
	now := c.stack.loop.Now()
	keep := c.rtxq[:0]
	for _, ss := range c.rtxq {
		end := ss.seg.Seq + ss.seg.SeqLen()
		if end <= ack {
			if !ss.rexmited {
				c.sampleRTT(now - ss.sentAt)
			}
			if ss.inFlight && !ss.sacked {
				c.pipeBytes -= int(ss.seg.SeqLen())
			}
			ss.seg.Release() // drop the retransmission queue's reference
			continue
		}
		keep = append(keep, ss)
	}
	if len(keep) != len(c.rtxq) {
		c.holeIdx = 0 // indices shifted; rescan
	}
	c.rtxq = keep
}

// sampleRTT updates the RFC 6298 estimator.
func (c *Conn) sampleRTT(r sim.Time) {
	if r < 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = r
		c.rttvar = r / 2
	} else {
		d := c.srtt - r
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + r) / 8
	}
	// RFC 6298: RTO = SRTT + max(G, 4*RTTVAR). The granularity term G
	// keeps RTO strictly above a stable path's RTT even as RTTVAR decays
	// to zero — without it, a timer scheduled for exactly one RTT races
	// the returning ACK and fires spuriously.
	v := 4 * c.rttvar
	if v < rtoGranularity {
		v = rtoGranularity
	}
	c.rto = c.srtt + v
	if c.rto < minRTO {
		c.rto = minRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

// armRTO (re)starts the retransmission timer. While a packet train is
// being delivered, the rearm is deferred to one per-train pass: every
// segment of the train arrives at the same virtual instant, and the RTO
// estimate is only ever changed by a processAck call that immediately
// rearms, so the train's final (inflight, rto) state fully determines the
// timer state an undeferred per-segment sequence would have left behind.
func (c *Conn) armRTO() {
	if c.stack.rxBatch > 0 {
		c.deferRTO()
		return
	}
	c.rtoTimer.Reset(c.rto)
}

// stopRTO stops the retransmission timer (nothing outstanding), with the
// same per-train deferral as armRTO.
func (c *Conn) stopRTO() {
	if c.stack.rxBatch > 0 {
		c.deferRTO()
		return
	}
	c.rtoTimer.Stop()
}

// deferRTO records the connection for the end-of-train timer pass.
func (c *Conn) deferRTO() {
	if !c.rtoDirty {
		c.rtoDirty = true
		c.stack.rtoDirty = append(c.stack.rtoDirty, c)
	}
}

// flushRTO brings the timer to its final state after a train: armed with
// the current estimate while data is outstanding, stopped otherwise. A
// connection torn down mid-train needs nothing — teardown stopped its
// timer directly.
func (c *Conn) flushRTO() {
	if c.state == StateClosed {
		return
	}
	if c.inflight() > 0 {
		c.rtoTimer.Reset(c.rto)
	} else {
		c.rtoTimer.Stop()
	}
}

// onRTO handles a retransmission timeout.
func (c *Conn) onRTO(sim.Time) {
	if c.state == StateClosed || c.inflight() == 0 {
		return
	}
	if c.rtoRetries++; c.rtoRetries > c.stack.maxRetries() {
		// The peer stayed silent through every backoff: give up. An orphan
		// (application already closed) dies quietly, as the kernel reaps
		// orphans — its peer tore down cleanly after receiving everything, so
		// only the final ACK was lost. A connection the application still
		// holds surfaces the failure instead.
		if c.appClosed {
			c.teardown(nil)
		} else {
			c.teardown(errors.New("tcpsim: retransmission timeout"))
		}
		return
	}
	c.stats.Timeouts++
	c.ssthresh = c.onLossCC()
	c.cwnd = MSS
	c.dupAcks = 0
	c.inRecovery = false
	// Everything un-SACKed is presumed lost and will be retransmitted in
	// slow start (go-back-N style, as TCP does after an RTO).
	for i := range c.rtxq {
		ss := &c.rtxq[i]
		if !ss.sacked && ss.inFlight {
			ss.inFlight = false
			c.pipeBytes -= int(ss.seg.SeqLen())
		}
	}
	c.holeIdx = 0
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.retransmitNextHole()
}

// processData handles the sequence-consuming part of a segment.
func (c *Conn) processData(seg *Segment) {
	end := seg.Seq + seg.SeqLen()
	if end <= c.rcvNxt {
		// Entirely old: retransmitted or duplicated data we already have.
		// Count the wasted bytes and re-ACK.
		c.stats.DupBytesRcvd += uint64(len(seg.Data))
		c.sendAck()
		return
	}
	if seg.Seq > c.rcvNxt {
		// Out of order: buffer (taking a reference) and send duplicate ACK.
		// A copy of a segment already buffered (duplication, a spurious
		// retransmit of a SACKed segment) is entirely wasted bytes.
		if c.bufferOOO(seg) {
			seg.retain()
			c.noteOOO(SackRange{Start: seg.Seq, End: seg.Seq + seg.SeqLen()})
		} else {
			c.stats.DupBytesRcvd += uint64(len(seg.Data))
		}
		c.sendAck()
		return
	}
	c.absorb(seg)
	// Drain now-contiguous out-of-order segments. Segment boundaries align
	// across retransmissions (a retransmit resends the identical segment),
	// so exact-sequence matching suffices. The buffer is in sequence order
	// and rcvNxt only grows, so one forward scan finds every match. A
	// matched slot is emptied before its data is delivered: a teardown from
	// the data callback then releases only what is still buffered, and
	// releaseStaleOOO compacts the emptied slots away.
	for i := 0; i < len(c.ooo); i++ {
		next := c.ooo[i]
		if next.Seq < c.rcvNxt {
			continue
		}
		if next.Seq > c.rcvNxt {
			break
		}
		c.ooo[i] = nil
		c.absorb(next)
		next.Release()
	}
	c.releaseStaleOOO()
	c.sendAck()
	c.maybeFinish()
}

// bufferOOO inserts seg into the reassembly buffer at its sequence
// position, unless a segment with the same sequence number is already
// buffered. It reports whether seg was inserted; the buffer's reference is
// the caller's to take.
func (c *Conn) bufferOOO(seg *Segment) bool {
	i, found := slices.BinarySearchFunc(c.ooo, seg.Seq, func(sg *Segment, seq uint64) int {
		return cmp.Compare(sg.Seq, seq)
	})
	if found {
		return false
	}
	c.ooo = c.stack.segs.ooo.Append(c.ooo, nil)
	copy(c.ooo[i+1:], c.ooo[i:])
	c.ooo[i] = seg
	return true
}

// releaseStaleOOO drops the reassembly buffer's drained slots and releases
// the segments the cumulative receive point has made entirely stale, in
// ascending sequence order. The order matters: the segment pool is LIFO,
// so release order decides which segment every later newSegment returns,
// and through per-flow stats it reaches experiment artifacts. Drained and
// stale slots all lie below rcvNxt, so the scan stops at the first segment
// at or above it. See also releaseAllOOO.
func (c *Conn) releaseStaleOOO() {
	keep, i := 0, 0
	for ; i < len(c.ooo); i++ {
		sg := c.ooo[i]
		if sg == nil {
			continue
		}
		if sg.Seq >= c.rcvNxt {
			break
		}
		if sg.Seq+sg.SeqLen() <= c.rcvNxt {
			sg.Release()
			continue
		}
		c.ooo[keep] = sg
		keep++
	}
	if keep == i {
		return
	}
	n := keep + copy(c.ooo[keep:], c.ooo[i:])
	clear(c.ooo[n:])
	c.ooo = c.ooo[:n]
}

// releaseAllOOO empties the reassembly buffer in ascending sequence order
// (teardown path; see releaseStaleOOO for why the order matters) and hands
// its array back to the segment pool.
func (c *Conn) releaseAllOOO() {
	for _, sg := range c.ooo {
		if sg != nil {
			sg.Release()
		}
	}
	c.stack.segs.ooo.Put(c.ooo)
	c.ooo = nil
}

// absorb consumes an in-sequence (possibly partially duplicate) segment,
// delivering new data and handling a FIN.
func (c *Conn) absorb(seg *Segment) {
	dataEnd := seg.Seq + uint64(len(seg.Data))
	if dataEnd > c.rcvNxt {
		data := seg.Data
		if seg.Seq < c.rcvNxt {
			// The prefix below the cumulative point was already delivered:
			// those wire bytes bought nothing.
			c.stats.DupBytesRcvd += c.rcvNxt - seg.Seq
			data = data[c.rcvNxt-seg.Seq:]
		}
		c.rcvNxt = dataEnd
		c.stats.BytesReceived += uint64(len(data))
		if len(data) > 0 {
			if c.onDataC != nil {
				c.onDataC(c, data)
			} else if c.onData != nil {
				c.onData(data)
			}
		}
	}
	if seg.Flags&FlagFIN != 0 {
		if !c.peerFin {
			c.peerFin = true
			c.peerFinSeq = dataEnd
		}
		if c.rcvNxt == dataEnd {
			c.rcvNxt = dataEnd + 1 // the FIN consumes one sequence number
		}
	}
}

// sendAck emits a pure ACK carrying SACK ranges for any out-of-order data
// held in the reassembly buffer. Pure ACKs are never tracked or buffered,
// so the creator's reference is dropped immediately after transmission and
// the single wire reference governs the segment's lifetime.
func (c *Conn) sendAck() {
	if c.state == StateClosed {
		return
	}
	ack := c.stack.newSegment()
	ack.Flags = FlagACK
	if c.ectOK && c.ceEcho {
		ack.Flags |= FlagECE // echo the CE mark until the sender answers CWR
	}
	ack.Seq = c.sndNxt
	ack.Ack = c.rcvNxt
	ack.Sack = c.sackBlocks()
	c.transmit(ack)
	ack.Release()
}

// noteOOO merges a newly buffered out-of-order range into the sorted,
// disjoint sackList.
func (c *Conn) noteOOO(r SackRange) {
	// Binary search for the insertion point.
	lo, hi := 0, len(c.sackList)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.sackList[mid].Start < r.Start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Merge with predecessor if touching.
	i := lo
	if i > 0 && c.sackList[i-1].End >= r.Start {
		i--
		if r.End > c.sackList[i].End {
			c.sackList[i].End = r.End
		}
	} else {
		c.sackList = c.stack.segs.sacks.Append(c.sackList, SackRange{})
		copy(c.sackList[i+1:], c.sackList[i:])
		c.sackList[i] = r
	}
	// Merge any successors swallowed by the (possibly grown) range.
	j := i + 1
	for j < len(c.sackList) && c.sackList[j].Start <= c.sackList[i].End {
		if c.sackList[j].End > c.sackList[i].End {
			c.sackList[i].End = c.sackList[j].End
		}
		j++
	}
	if j > i+1 {
		c.sackList = append(c.sackList[:i+1], c.sackList[j:]...)
	}
}

// sackBlocks returns the receiver's out-of-order ranges (up to a small cap,
// like real TCP's SACK option) for an outgoing ACK, dropping ranges already
// covered by the cumulative ack, or nil when there are none. The blocks
// live in an array from the segment pool, which the ACK hands back when it
// is recycled, so ACK generation allocates nothing.
func (c *Conn) sackBlocks() []SackRange {
	// Drop fully delivered ranges from the front, keeping the array whole.
	k := 0
	for k < len(c.sackList) && c.sackList[k].End <= c.rcvNxt {
		k++
	}
	if k > 0 {
		c.sackList = c.sackList[:copy(c.sackList, c.sackList[k:])]
	}
	n := min(len(c.sackList), 8)
	if n == 0 {
		return nil
	}
	return append(c.stack.segs.sacks.Get(n), c.sackList[:n]...)
}

// maybeFinish closes the connection once both directions are done: our FIN
// is acknowledged and the peer's FIN has been received.
func (c *Conn) maybeFinish() {
	if c.state == StateClosed {
		return
	}
	ourSideDone := c.finSent && c.sndUna == c.sndNxt
	if ourSideDone && c.peerFin {
		c.teardown(nil)
	}
}

// teardown finalizes the connection, returning its segment references and
// its retransmit queue, reassembly buffer and SACK list to the segment
// pool: a closed connection holds no capacity, recycled or not.
func (c *Conn) teardown(err error) {
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	c.closedErr = err
	c.rtoTimer.Stop()
	for i := range c.rtxq {
		c.rtxq[i].seg.Release()
	}
	c.stack.segs.rtx.Put(c.rtxq)
	c.rtxq = nil
	c.releaseAllOOO()
	c.stack.segs.sacks.Put(c.sackList)
	c.sackList = nil
	c.stack.drop(c)
	if (c.onClose != nil || c.onCloseC != nil) && !c.closeNotified {
		c.closeNotified = true
		// ScheduleArg with the package-level notifier: every transfer's
		// teardown would otherwise allocate a closure here. The callback
		// fields are read at fire time, which is safe: a closed conn can
		// only be recycled from this very notification.
		c.stack.loop.ScheduleArg(0, notifyClose, c)
	}
}

// notifyClose delivers the deferred close notification scheduled by
// teardown. c.closedErr is final once the conn reaches StateClosed.
func notifyClose(_ sim.Time, arg any) {
	c := arg.(*Conn)
	if c.onCloseC != nil {
		c.onCloseC(c, c.closedErr)
	} else if c.onClose != nil {
		c.onClose(c.closedErr)
	}
}
