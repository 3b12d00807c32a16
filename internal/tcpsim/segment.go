// Package tcpsim implements a TCP-like reliable byte-stream transport over
// nsim datagrams, driven entirely by the virtual clock.
//
// Mahimahi measures applications running over the Linux kernel's TCP; this
// reproduction needs fetch latencies to have the same *shape* — connection
// setup costs one RTT, throughput ramps through slow start, losses cause
// fast retransmit or RTO stalls, and long flows converge to the bottleneck
// rate. tcpsim therefore models, per RFC-style behaviour:
//
//   - three-way handshake (SYN, SYN-ACK, ACK);
//   - cumulative ACKs with out-of-order reassembly;
//   - congestion control: slow start with IW=10 segments (RFC 6928),
//     congestion avoidance, fast retransmit on three duplicate ACKs with
//     SACK-based hole filling (RFC 2018/6675-style pipe accounting, as in
//     the Linux stacks Mahimahi's measurements ran over), and RTO with
//     exponential backoff (RFC 6298 SRTT/RTTVAR estimation);
//   - FIN teardown.
//
// It deliberately omits features irrelevant to the paper's measurements:
// window scaling negotiation (the receive window is large and fixed), Nagle
// (browsers disable it), and delayed ACKs.
package tcpsim

import (
	"fmt"
	"strings"
)

// Protocol constants. Sizes are in bytes.
const (
	// HeaderSize is the emulated TCP/IP header overhead per segment.
	HeaderSize = 40
	// MSS is the maximum segment payload so that MSS+HeaderSize == MTU.
	MSS = 1460
	// InitialWindow is the initial congestion window (RFC 6928), in bytes.
	InitialWindow = 10 * MSS
	// ReceiveWindow is the fixed advertised receive window.
	ReceiveWindow = 4 << 20
)

// Flags is a bitmask of TCP control flags.
type Flags uint8

// Flag values. ECE and CWR are the ECN signalling pair of RFC 3168: the
// receiver echoes a CE mark with ECE on its ACKs until the sender answers
// with CWR; on the SYN exchange the same bits negotiate ECN capability
// (SYN carrying ECE|CWR offers, SYN-ACK carrying ECE alone accepts).
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
	FlagECE
	FlagCWR
)

// String formats flags as e.g. "SYN|ACK".
func (f Flags) String() string {
	var parts []string
	if f&FlagSYN != 0 {
		parts = append(parts, "SYN")
	}
	if f&FlagACK != 0 {
		parts = append(parts, "ACK")
	}
	if f&FlagFIN != 0 {
		parts = append(parts, "FIN")
	}
	if f&FlagRST != 0 {
		parts = append(parts, "RST")
	}
	if f&FlagECE != 0 {
		parts = append(parts, "ECE")
	}
	if f&FlagCWR != 0 {
		parts = append(parts, "CWR")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// SackRange is a received-but-not-yet-acknowledged byte range
// [Start, End), reported by the receiver in ACKs (RFC 2018 SACK).
type SackRange struct {
	Start, End uint64
}

// Segment is a TCP segment. Sequence numbers are absolute byte offsets
// (64-bit, so wraparound never occurs within a simulation).
type Segment struct {
	Flags Flags
	// Seq is the byte offset of Data[0] in the sender's stream. For SYN and
	// FIN segments it is the offset the flag occupies.
	Seq uint64
	// Ack is the next byte expected by the sender of this segment; valid
	// when FlagACK is set.
	Ack  uint64
	Data []byte
	// Sack reports out-of-order ranges the receiver holds. Loss recovery
	// uses it to fill all holes in parallel rather than one per RTT, like
	// the Linux stacks Mahimahi's measurements ran over.
	Sack []SackRange

	// Pool bookkeeping (see Stack.newSegment). Segments travel by pointer
	// through the simulated network, so one object can simultaneously be
	// held by the sender's retransmission queue, one or more in-flight wire
	// copies, and the receiver's reassembly buffer; refs counts those
	// holders and the segment is recycled only when it reaches zero. pool
	// is the segment's origin pool, so a reference dropped anywhere —
	// including by a network drop, which has no Stack in scope — can
	// recycle the segment without knowing who allocated it; it is nil for
	// hand-built segments (tests), which are never recycled.
	refs int32
	pool *SegmentPool
}

// SeqLen is the amount of sequence space the segment occupies: its payload
// plus one for SYN and one for FIN.
func (s *Segment) SeqLen() uint64 {
	n := uint64(len(s.Data))
	if s.Flags&FlagSYN != 0 {
		n++
	}
	if s.Flags&FlagFIN != 0 {
		n++
	}
	return n
}

// WireSize is the segment's size on the wire, including headers.
func (s *Segment) WireSize() int { return HeaderSize + len(s.Data) }

// String formats a short description for debugging.
func (s *Segment) String() string {
	return fmt.Sprintf("seg{%s seq=%d ack=%d len=%d}", s.Flags, s.Seq, s.Ack, len(s.Data))
}
