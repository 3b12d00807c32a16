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
// A datagram is a netem.Packet: the object the transport sends is the one
// every box on the path queues and the receiving socket gets, as a shell's
// forwarder in Mahimahi writes out the very packet it read.
//
// Isolation is structural: there is no global address space, so traffic
// cannot leak between unconnected namespaces. The experiments in
// internal/experiments exploit this to run concurrent shell stacks with
// provably zero interference (paper Figure "Isolation").
package nsim

import "repro/internal/netem"

// Addr is an IPv4 address in host byte order.
type Addr = netem.Addr

// AddrPort is an (address, port) endpoint.
type AddrPort = netem.AddrPort

// ParseAddr parses dotted-quad notation. It panics on malformed input; use
// it for literals in code and tests.
func ParseAddr(s string) Addr { return netem.ParseAddr(s) }

// ParseAddrErr parses dotted-quad notation, returning an error on malformed
// input.
func ParseAddrErr(s string) (Addr, error) { return netem.ParseAddrErr(s) }

// Datagram is the unit of traffic between namespaces: a netem.Packet, whose
// Src, Dst and TTL are the IP header nsim routes on and whose Payload is
// transport data (e.g. a TCP segment).
type Datagram = netem.Packet

// DefaultTTL is applied to datagrams sent with a zero TTL.
const DefaultTTL = 64
