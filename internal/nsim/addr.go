// Package nsim simulates Linux network namespaces, the isolation substrate
// every Mahimahi shell is built on (paper §4, "Isolation").
//
// Each shell in Mahimahi creates a private network namespace connected to
// its parent by a veth pair; packets crossing the pair traverse the shell's
// emulation queues. nsim reproduces those semantics in-process:
//
//   - a Namespace owns a private set of IP addresses and sockets;
//   - namespaces are connected only by explicit Links (veth pairs), whose
//     two directions can be shaped by arbitrary netem pipelines;
//   - a datagram for an address the namespace does not own is forwarded via
//     its routing table, or dropped if no route exists.
//
// Isolation is structural: there is no global address space, so traffic
// cannot leak between unconnected namespaces. The experiments in
// internal/experiments exploit this to run concurrent shell stacks with
// provably zero interference (paper Figure "Isolation").
package nsim

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// ParseAddr parses dotted-quad notation. It panics on malformed input; use
// it for literals in code and tests.
func ParseAddr(s string) Addr {
	a, err := ParseAddrErr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseAddrErr parses dotted-quad notation, returning an error on malformed
// input.
func ParseAddrErr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("nsim: malformed address %q", s)
	}
	var a Addr
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("nsim: malformed address %q", s)
		}
		a = a<<8 | Addr(v)
	}
	return a, nil
}

// String formats the address as dotted-quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// InSubnet reports whether the address lies within prefix/bits.
func (a Addr) InSubnet(prefix Addr, bits int) bool {
	if bits <= 0 {
		return true
	}
	if bits >= 32 {
		return a == prefix
	}
	mask := ^Addr(0) << (32 - bits)
	return a&mask == prefix&mask
}

// AddrPort is an (address, port) endpoint.
type AddrPort struct {
	Addr Addr
	Port uint16
}

// String formats the endpoint as "a.b.c.d:port".
func (ap AddrPort) String() string {
	return fmt.Sprintf("%s:%d", ap.Addr, ap.Port)
}

// Datagram is the unit of traffic between namespaces: an IP-like packet
// with transport endpoints and an opaque payload (e.g. a TCP segment).
type Datagram struct {
	Src, Dst AddrPort
	// TTL guards against routing loops; namespaces drop datagrams whose
	// TTL reaches zero while forwarding.
	TTL int
	// Size is the on-wire size in bytes, including emulated headers.
	Size int
	// Flow and Seq pass through to netem.Packet for accounting.
	Flow uint64
	Seq  int64
	// ECT marks the datagram as ECN-capable (RFC 3168): marking AQM
	// disciplines on the path CE-mark it instead of dropping. Set by the
	// transport on ECN-negotiated connections.
	ECT bool
	// CE is the Congestion Experienced mark, copied back from the
	// netem.Packet that carried the datagram across a link whose AQM
	// fired. The receiving transport echoes it to the sender.
	CE bool
	// Corrupt marks the datagram as bit-damaged in flight, copied back
	// from a netem.Packet a CorruptBox flagged. The receiving transport
	// discards it as a checksum failure.
	Corrupt bool
	// Payload is transport data, opaque to the network layer. A payload
	// that implements netem.Payload is released when the network drops
	// the datagram and cloned when it duplicates it.
	Payload any
	// pools is the datagram's origin pool set (nil for literals, which are
	// never recycled), so a drop anywhere in the data plane can recycle it
	// without knowing the topology.
	pools *PoolSet
}

// DefaultTTL is applied to datagrams sent with a zero TTL.
const DefaultTTL = 64

// String formats a short description of the datagram.
func (d *Datagram) String() string {
	return fmt.Sprintf("dgram{%s -> %s size=%d}", d.Src, d.Dst, d.Size)
}
