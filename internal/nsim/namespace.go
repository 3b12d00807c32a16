package nsim

import (
	"errors"
	"fmt"

	"repro/internal/netem"
	"repro/internal/reuse"
	"repro/internal/sim"
)

// DatagramHandler receives datagrams delivered to a bound socket.
type DatagramHandler func(dg *Datagram)

// Network is a collection of namespaces sharing one virtual clock. It
// hands out flow identifiers, holds the loop, and owns the per-loop packet
// and datagram pools that make the forwarding path allocation-free; it does
// not provide any connectivity (connectivity is exclusively via Links).
type Network struct {
	loop     *sim.Loop
	nextFlow uint64
	nsCount  int
	// pools recycles the netem packets that wrap datagrams crossing links
	// and the pooled datagrams themselves (see NewDatagram).
	pools *PoolSet
}

// PoolSet holds a network's recycled packet and datagram free lists. Pool
// reuse is single-goroutine (per loop), so the lists are unsynchronized.
// A PoolSet outlives any one Network: a driver running many sequential
// simulations (one fresh Network each, as the experiment engine does per
// cell) can thread one PoolSet through all of them so the pools warm up
// once instead of once per simulation. A PoolSet must never be shared by
// two concurrently running networks.
type PoolSet struct {
	// pkts also owns the delay boxes' packet trains and the qdisc packet
	// rings, which come from their packets' origin pool (see
	// netem.Qdisc.ReleaseStorage).
	pkts netem.PacketPool
	dgs  reuse.Free[Datagram]
	// batches recycles the datagram-batch containers that carry packet
	// trains across the one delivery event a train shares.
	batches reuse.Free[dgBatch]
	// sockets lends the namespaces' socket tables, which a driver running
	// cell after cell hands back at the end of each cell
	// (Namespace.ReleaseStorage) instead of regrowing fresh ones.
	sockets reuse.Maps[AddrPort, DatagramHandler]
}

// OutstandingDatagrams reports pooled datagrams currently alive (handed
// out by NewDatagram and not yet recycled). Zero at quiescence means no
// drop path leaked a datagram.
func (ps *PoolSet) OutstandingDatagrams() int64 { return ps.dgs.Outstanding() }

// OutstandingPackets reports pooled netem packets currently alive; zero at
// quiescence means every wrapper came back, delivered or dropped.
func (ps *PoolSet) OutstandingPackets() int64 { return ps.pkts.Outstanding() }

// dgBatch is a pooled container for a train's datagrams, the argument of
// the single delivery event a train costs (instead of one event per
// packet). The receiving namespace consumes the datagrams in order and
// recycles the container.
type dgBatch struct {
	dgs []*Datagram
}

// getBatch returns an empty batch container from the pool.
func (n *Network) getBatch() *dgBatch {
	if b := n.pools.batches.Get(); b != nil {
		return b
	}
	return &dgBatch{}
}

// putBatch recycles a drained batch container.
func (n *Network) putBatch(b *dgBatch) {
	clear(b.dgs)
	b.dgs = b.dgs[:0]
	n.pools.batches.Put(b)
}

// NewNetwork creates an empty network on the given event loop, with its
// own private pools.
func NewNetwork(loop *sim.Loop) *Network {
	return NewNetworkPooled(loop, nil)
}

// NewNetworkPooled creates an empty network that draws from (and returns
// to) the given PoolSet; nil gets a private set.
func NewNetworkPooled(loop *sim.Loop, pools *PoolSet) *Network {
	if pools == nil {
		pools = &PoolSet{}
	}
	return &Network{loop: loop, pools: pools}
}

// Pools exposes the network's pool set, for leak accounting in tests.
func (n *Network) Pools() *PoolSet { return n.pools }

// NewDatagram returns a zeroed datagram from the network's pool. Pooled
// datagrams are recycled automatically once delivered to a socket or
// dropped (qdisc, loss, TTL, no route, no socket); the receiving handler
// must therefore not retain the datagram itself beyond its callback — only
// its Payload, whose lifetime the transport manages. Datagrams built with
// a composite literal are never recycled, so existing callers are
// unaffected.
func (n *Network) NewDatagram() *Datagram { return n.pools.newDatagram() }

func (ps *PoolSet) newDatagram() *Datagram {
	if dg := ps.dgs.Get(); dg != nil {
		return dg
	}
	return &Datagram{pools: ps}
}

// free recycles a pooled datagram into its origin pool; literals are
// ignored.
func (d *Datagram) free() {
	ps := d.pools
	if ps == nil {
		return
	}
	*d = Datagram{pools: ps}
	ps.dgs.Put(d)
}

var _ netem.Payload = (*Datagram)(nil)

// Release implements netem.Payload. The network dropped the datagram (a
// qdisc or loss drop, TTL expiry, no route, no socket): its payload is
// released, then the datagram is recycled.
func (d *Datagram) Release() {
	if pl, ok := d.Payload.(netem.Payload); ok {
		pl.Release()
	}
	d.free()
}

// Clone implements netem.Payload for a duplicated wire copy (DuplicateBox):
// the copy comes from the original's pool (a literal's copy is a literal)
// and clones the payload underneath, so the two copies are independently
// droppable.
func (d *Datagram) Clone() any {
	var cp *Datagram
	if d.pools != nil {
		cp = d.pools.newDatagram()
	} else {
		cp = new(Datagram)
	}
	*cp = *d
	if pl, ok := d.Payload.(netem.Payload); ok {
		cp.Payload = pl.Clone()
	}
	return cp
}

// Loop returns the network's event loop.
func (n *Network) Loop() *sim.Loop { return n.loop }

// NextFlow allocates a network-unique flow identifier.
func (n *Network) NextFlow() uint64 {
	n.nextFlow++
	return n.nextFlow
}

// route is a prefix-routed next hop.
type route struct {
	prefix Addr
	bits   int
	via    *LinkEnd
}

// Namespace is an isolated network stack: a private set of owned addresses,
// a socket table, attached link endpoints and a routing table.
type Namespace struct {
	name   string
	net    *Network
	locals map[Addr]bool
	links  []*LinkEnd
	routes []route
	// sockets is the socket table, borrowed from the network's PoolSet by
	// the first Bind to a specific address; see ReleaseStorage.
	sockets map[AddrPort]DatagramHandler
	// wildcards handles binds to port on the zero address (any local addr).
	wildcards map[uint16]DatagramHandler
	// intercept, when set, sees every datagram that arrives for a
	// non-local destination before routing. Returning true consumes the
	// datagram. This models the iptables REDIRECT rule RecordShell uses to
	// steer all HTTP(S) traffic into its man-in-the-middle proxy.
	intercept func(dg *Datagram) bool
	nextPort  uint16
	stats     NamespaceStats
	// recvArg and deliverArg are the namespace's receive/deliverLocal
	// methods pre-bound as ArgHandlers, so the per-packet event-loop hops
	// (link delivery, loopback sends) schedule without allocating a
	// closure. recvBatchArg is the train analogue: one event delivering a
	// whole dgBatch.
	recvArg      sim.ArgHandler
	deliverArg   sim.ArgHandler
	recvBatchArg sim.ArgHandler
	// rxBatchStart/rxBatchEnd bracket a batched train delivery, letting
	// the namespace's transport (one TCP stack at most) coalesce per-train
	// work — e.g. one retransmission-timer pass per train instead of per
	// segment. See SetRxBatchHooks.
	rxBatchStart func()
	rxBatchEnd   func()
}

// NamespaceStats counts traffic seen by a namespace.
type NamespaceStats struct {
	DeliveredLocal uint64 // datagrams delivered to a local socket
	Forwarded      uint64 // datagrams routed onward
	NoRoute        uint64 // datagrams dropped: no route to destination
	NoSocket       uint64 // datagrams dropped: no socket on the port
	TTLExceeded    uint64 // datagrams dropped while forwarding
}

// NewNamespace creates an isolated namespace in the network.
func (n *Network) NewNamespace(name string) *Namespace {
	n.nsCount++
	if name == "" {
		name = fmt.Sprintf("ns%d", n.nsCount)
	}
	ns := &Namespace{
		name:      name,
		net:       n,
		locals:    make(map[Addr]bool),
		wildcards: make(map[uint16]DatagramHandler),
		nextPort:  49152,
	}
	ns.recvArg = func(_ sim.Time, a any) { ns.receive(a.(*Datagram)) }
	ns.deliverArg = func(_ sim.Time, a any) { ns.deliverLocal(a.(*Datagram)) }
	ns.recvBatchArg = func(_ sim.Time, a any) { ns.receiveBatch(a.(*dgBatch)) }
	return ns
}

// SetRxBatchHooks installs callbacks bracketing each batched train
// delivery: start fires before the train's first datagram is handed to
// receive, end after its last. The TCP stack uses the bracket to defer
// per-segment timer rearms to one pass per train; the hooks must not
// assume anything about the datagrams in between (forwarded, dropped, or
// delivered locally).
func (ns *Namespace) SetRxBatchHooks(start, end func()) {
	ns.rxBatchStart, ns.rxBatchEnd = start, end
}

// receiveBatch consumes one delivered train: each datagram goes through
// the normal receive path, in train order, with nothing in between —
// exactly the event sequence the per-packet path would have produced.
func (ns *Namespace) receiveBatch(b *dgBatch) {
	if ns.rxBatchStart != nil {
		ns.rxBatchStart()
	}
	for _, dg := range b.dgs {
		ns.receive(dg)
	}
	if ns.rxBatchEnd != nil {
		ns.rxBatchEnd()
	}
	ns.net.putBatch(b)
}

// Name reports the namespace's label.
func (ns *Namespace) Name() string { return ns.name }

// Network returns the owning network.
func (ns *Namespace) Network() *Network { return ns.net }

// Stats returns the namespace's traffic counters.
func (ns *Namespace) Stats() NamespaceStats { return ns.stats }

// AddAddress assigns an address to the namespace. ReplayShell uses this to
// own every server IP seen during recording ("creates a separate virtual
// interface for each distinct server IP", paper §2).
func (ns *Namespace) AddAddress(a Addr) {
	ns.locals[a] = true
}

// OwnsAddress reports whether the namespace owns the address.
func (ns *Namespace) OwnsAddress(a Addr) bool { return ns.locals[a] }

// Addresses returns the number of addresses the namespace owns.
func (ns *Namespace) Addresses() int { return len(ns.locals) }

// ErrPortInUse is returned by Bind when the endpoint is already bound.
var ErrPortInUse = errors.New("nsim: address already in use")

// ErrNotLocal is returned by Bind when the address is not owned by the
// namespace.
var ErrNotLocal = errors.New("nsim: cannot bind to non-local address")

// Bind installs a handler for datagrams addressed to ap. Binding to an
// address the namespace does not own fails, preserving isolation. A zero
// ap.Addr binds the port on every local address (wildcard).
func (ns *Namespace) Bind(ap AddrPort, h DatagramHandler) error {
	if h == nil {
		return errors.New("nsim: Bind with nil handler")
	}
	if ap.Addr == 0 {
		if _, ok := ns.wildcards[ap.Port]; ok {
			return fmt.Errorf("%w: *:%d", ErrPortInUse, ap.Port)
		}
		ns.wildcards[ap.Port] = h
		return nil
	}
	if !ns.locals[ap.Addr] {
		return fmt.Errorf("%w: %s", ErrNotLocal, ap.Addr)
	}
	if _, ok := ns.sockets[ap]; ok {
		return fmt.Errorf("%w: %s", ErrPortInUse, ap)
	}
	if ns.sockets == nil {
		ns.sockets = ns.net.pools.sockets.Get()
	}
	ns.sockets[ap] = h
	return nil
}

// ReleaseStorage hands the namespace's socket table back to its network's
// PoolSet, emptied, for a later namespace to reuse. Call it once the
// network's loop has drained and the namespace will carry no more traffic,
// as a driver running cell after cell on one PoolSet does at the end of
// each cell; bindings to specific addresses are dropped.
func (ns *Namespace) ReleaseStorage() {
	if ns.sockets == nil {
		return
	}
	ns.net.pools.sockets.Put(ns.sockets)
	ns.sockets = nil
}

// Unbind removes a socket binding.
func (ns *Namespace) Unbind(ap AddrPort) {
	if ap.Addr == 0 {
		delete(ns.wildcards, ap.Port)
		return
	}
	delete(ns.sockets, ap)
}

// BindEphemeral binds h to a fresh ephemeral port on the given local
// address, returning the chosen endpoint.
func (ns *Namespace) BindEphemeral(a Addr, h DatagramHandler) (AddrPort, error) {
	if !ns.locals[a] {
		return AddrPort{}, fmt.Errorf("%w: %s", ErrNotLocal, a)
	}
	for tries := 0; tries < 1<<16; tries++ {
		port := ns.nextPort
		ns.nextPort++
		if ns.nextPort == 0 {
			ns.nextPort = 49152
		}
		ap := AddrPort{Addr: a, Port: port}
		if _, ok := ns.sockets[ap]; ok {
			continue
		}
		if err := ns.Bind(ap, h); err == nil {
			return ap, nil
		}
	}
	return AddrPort{}, errors.New("nsim: ephemeral ports exhausted")
}

// AddRoute installs a prefix route via the given link end. More-specific
// prefixes win; ties go to the most recently added route.
func (ns *Namespace) AddRoute(prefix Addr, bits int, via *LinkEnd) {
	if via == nil || via.ns != ns {
		panic("nsim: AddRoute via a link end not attached to this namespace")
	}
	ns.routes = append(ns.routes, route{prefix: prefix, bits: bits, via: via})
}

// AddDefaultRoute installs a 0.0.0.0/0 route via the given link end.
func (ns *Namespace) AddDefaultRoute(via *LinkEnd) { ns.AddRoute(0, 0, via) }

// lookup finds the best route for dst, or nil.
func (ns *Namespace) lookup(dst Addr) *LinkEnd {
	best := -1
	var via *LinkEnd
	for i := range ns.routes {
		r := &ns.routes[i]
		if dst.InSubnet(r.prefix, r.bits) && r.bits >= best {
			best = r.bits
			via = r.via
		}
	}
	return via
}

// ErrNoRoute is returned by Send when no route matches the destination.
var ErrNoRoute = errors.New("nsim: no route to host")

// Send originates a datagram from this namespace. Local destinations are
// delivered through the event loop (so delivery order is deterministic and
// never reentrant); everything else is routed.
func (ns *Namespace) Send(dg *Datagram) error {
	if dg.TTL == 0 {
		dg.TTL = DefaultTTL
	}
	if ns.locals[dg.Dst.Addr] {
		ns.net.loop.ScheduleArg(0, ns.deliverArg, dg)
		return nil
	}
	via := ns.lookup(dg.Dst.Addr)
	if via == nil {
		ns.stats.NoRoute++
		dg.free()
		return fmt.Errorf("%w: %s from %s", ErrNoRoute, dg.Dst, ns.name)
	}
	via.transmit(dg)
	return nil
}

// SetIntercept installs (or clears, with nil) the transparent interception
// hook for traffic transiting this namespace.
func (ns *Namespace) SetIntercept(fn func(dg *Datagram) bool) { ns.intercept = fn }

// receive handles a datagram arriving from a link. Every path consumes the
// datagram: delivery and drops recycle pooled datagrams, forwarding passes
// ownership to the next link.
func (ns *Namespace) receive(dg *Datagram) {
	if ns.locals[dg.Dst.Addr] {
		ns.deliverLocal(dg)
		return
	}
	if ns.intercept != nil && ns.intercept(dg) {
		ns.stats.DeliveredLocal++
		dg.free()
		return
	}
	// Forward. Drops here consume a datagram that already entered the
	// network, so the wire copy's payload reference is released too.
	dg.TTL--
	if dg.TTL <= 0 {
		ns.stats.TTLExceeded++
		dg.Release()
		return
	}
	via := ns.lookup(dg.Dst.Addr)
	if via == nil {
		ns.stats.NoRoute++
		dg.Release()
		return
	}
	ns.stats.Forwarded++
	via.transmit(dg)
}

func (ns *Namespace) deliverLocal(dg *Datagram) {
	if h, ok := ns.sockets[dg.Dst]; ok {
		ns.stats.DeliveredLocal++
		h(dg)
	} else if h, ok := ns.wildcards[dg.Dst.Port]; ok {
		ns.stats.DeliveredLocal++
		h(dg)
	} else {
		// No socket: nothing consumed the payload, so release the wire
		// copy's reference before recycling.
		ns.stats.NoSocket++
		dg.Release()
		return
	}
	// The handler has returned; the datagram is consumed (the handler
	// released or retained the payload itself).
	dg.free()
}

// LinkEnd is one side of a veth pair attached to a namespace.
type LinkEnd struct {
	ns   *Namespace
	pipe *netem.Pipeline // shaping applied to traffic leaving this end
	peer *LinkEnd
}

// Namespace returns the namespace this end is attached to.
func (le *LinkEnd) Namespace() *Namespace { return le.ns }

// Pipeline returns the netem pipeline shaping this end's egress.
func (le *LinkEnd) Pipeline() *netem.Pipeline { return le.pipe }

// transmit pushes a datagram into this end's egress pipeline, wrapped in a
// pooled packet that the far sink recycles on arrival. The ECN bits ride
// the wrapper: ECT so the link's AQM knows it may mark, CE so a mark
// acquired on an earlier hop survives re-wrapping.
func (le *LinkEnd) transmit(dg *Datagram) {
	pkt := le.ns.net.pools.pkts.Get()
	pkt.Size = dg.Size
	pkt.Flow = dg.Flow
	pkt.Seq = dg.Seq
	pkt.ECT = dg.ECT
	pkt.CE = dg.CE
	pkt.Corrupt = dg.Corrupt
	pkt.Payload = dg
	le.pipe.Send(pkt)
}

// unwrap recycles a packet arriving at a link end and returns its datagram,
// carrying over the marks the link put on the packet: CE from an AQM, and
// Corrupt from a CorruptBox.
func (n *Network) unwrap(p *netem.Packet) *Datagram {
	dg := p.Payload.(*Datagram)
	if p.CE {
		dg.CE = true
	}
	if p.Corrupt {
		dg.Corrupt = true
	}
	n.pools.pkts.Put(p)
	return dg
}

// Connect creates a veth pair between two namespaces. Traffic from a to b
// traverses ab (nil for an unshaped wire); traffic from b to a traverses
// ba. The returned ends can be used as route targets.
//
// This is the moral equivalent of `ip link add veth0 type veth peer veth1`
// plus moving the peers into their namespaces — with the crucial Mahimahi
// twist that the pair's two directions are where DelayShell/LinkShell hang
// their queues.
func Connect(a, b *Namespace, ab, ba *netem.Pipeline) (*LinkEnd, *LinkEnd) {
	if a.net != b.net {
		panic("nsim: Connect across networks")
	}
	if ab == nil {
		ab = netem.NewPipeline()
	}
	if ba == nil {
		ba = netem.NewPipeline()
	}
	ea := &LinkEnd{ns: a, pipe: ab}
	eb := &LinkEnd{ns: b, pipe: ba}
	ea.peer, eb.peer = eb, ea
	// Delivery into the receiving namespace always goes through the event
	// loop, even when the pipeline itself imposes no delay. This keeps
	// packet receipt from reentering a protocol stack that is mid-callback
	// (e.g. an application writing from within its data handler must not
	// observe the next inbound packet before its own handler returns), at
	// zero virtual-time cost; same-timestamp events preserve FIFO order.
	// Each direction has one sink: a train crosses into the receiving
	// namespace through one event carrying a pooled datagram batch, and a
	// one-packet train through one event carrying the datagram itself (no
	// container churn). Either way the firing order is identical to
	// per-packet delivery, because a train's packets are adjacent in event
	// order by construction.
	loop := a.net.loop
	net := a.net
	sink := func(dst *Namespace) netem.BatchSink {
		return func(pkts []*netem.Packet) {
			if len(pkts) == 1 {
				loop.ScheduleArg(0, dst.recvArg, net.unwrap(pkts[0]))
				return
			}
			batch := net.getBatch()
			for _, p := range pkts {
				batch.dgs = append(batch.dgs, net.unwrap(p))
			}
			loop.ScheduleArg(0, dst.recvBatchArg, batch)
		}
	}
	ab.SetBatchSink(sink(b))
	ba.SetBatchSink(sink(a))
	a.links = append(a.links, ea)
	b.links = append(b.links, eb)
	return ea, eb
}
