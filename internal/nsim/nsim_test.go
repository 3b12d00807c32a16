package nsim

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/netem"
	"repro/internal/sim"
)

func TestParseAddrRoundTrip(t *testing.T) {
	for _, s := range []string{"0.0.0.0", "10.0.0.1", "192.168.1.254", "255.255.255.255"} {
		if got := ParseAddr(s).String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseAddrErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3"} {
		if _, err := ParseAddrErr(s); err == nil {
			t.Errorf("ParseAddrErr(%q) accepted", s)
		}
	}
}

func TestParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ParseAddr on garbage did not panic")
		}
	}()
	ParseAddr("nope")
}

func TestInSubnet(t *testing.T) {
	a := ParseAddr("10.1.2.3")
	cases := []struct {
		prefix string
		bits   int
		want   bool
	}{
		{"10.0.0.0", 8, true},
		{"10.1.0.0", 16, true},
		{"10.1.2.0", 24, true},
		{"10.1.2.3", 32, true},
		{"10.1.2.4", 32, false},
		{"11.0.0.0", 8, false},
		{"0.0.0.0", 0, true},
	}
	for _, c := range cases {
		if got := a.InSubnet(ParseAddr(c.prefix), c.bits); got != c.want {
			t.Errorf("InSubnet(%s/%d) = %v, want %v", c.prefix, c.bits, got, c.want)
		}
	}
}

// Property: every address is in its own /32 and in 0.0.0.0/0.
func TestInSubnetProperty(t *testing.T) {
	f := func(raw uint32) bool {
		a := Addr(raw)
		return a.InSubnet(a, 32) && a.InSubnet(0, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func newPair(t *testing.T) (*sim.Loop, *Network, *Namespace, *Namespace, *LinkEnd, *LinkEnd) {
	t.Helper()
	loop := sim.NewLoop()
	net := NewNetwork(loop)
	a := net.NewNamespace("a")
	b := net.NewNamespace("b")
	a.AddAddress(ParseAddr("10.0.0.1"))
	b.AddAddress(ParseAddr("10.0.0.2"))
	ea, eb := Connect(a, b, nil, nil)
	a.AddDefaultRoute(ea)
	b.AddDefaultRoute(eb)
	return loop, net, a, b, ea, eb
}

func TestSendAcrossLink(t *testing.T) {
	loop, _, a, b, _, _ := newPair(t)
	var got *Datagram
	dst := AddrPort{Addr: ParseAddr("10.0.0.2"), Port: 80}
	if err := b.Bind(dst, func(dg *Datagram) { got = dg }); err != nil {
		t.Fatal(err)
	}
	dg := &Datagram{
		Src:  AddrPort{Addr: ParseAddr("10.0.0.1"), Port: 5000},
		Dst:  dst,
		Size: 100,
	}
	if err := a.Send(dg); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	if got == nil {
		t.Fatal("datagram not delivered")
	}
	if got.Src.Port != 5000 || got.Size != 100 {
		t.Fatalf("delivered %+v", got)
	}
}

func TestLocalDelivery(t *testing.T) {
	loop := sim.NewLoop()
	net := NewNetwork(loop)
	a := net.NewNamespace("a")
	addr := ParseAddr("127.0.0.1")
	a.AddAddress(addr)
	var got *Datagram
	a.Bind(AddrPort{Addr: addr, Port: 8080}, func(dg *Datagram) { got = dg })
	err := a.Send(&Datagram{
		Src: AddrPort{Addr: addr, Port: 9000}, Dst: AddrPort{Addr: addr, Port: 8080}, Size: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("local delivery was synchronous; must go through the loop")
	}
	loop.Run()
	if got == nil {
		t.Fatal("local datagram not delivered")
	}
}

func TestIsolationNoRoute(t *testing.T) {
	loop := sim.NewLoop()
	net := NewNetwork(loop)
	a := net.NewNamespace("a")
	c := net.NewNamespace("c") // never connected to a
	a.AddAddress(ParseAddr("10.0.0.1"))
	c.AddAddress(ParseAddr("10.0.0.9"))
	delivered := false
	c.Bind(AddrPort{Addr: ParseAddr("10.0.0.9"), Port: 80}, func(*Datagram) { delivered = true })
	err := a.Send(&Datagram{
		Src: AddrPort{Addr: ParseAddr("10.0.0.1"), Port: 1}, Dst: AddrPort{Addr: ParseAddr("10.0.0.9"), Port: 80}, Size: 1,
	})
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("Send to unconnected namespace: err = %v, want ErrNoRoute", err)
	}
	loop.Run()
	if delivered {
		t.Fatal("isolation violated: datagram crossed unconnected namespaces")
	}
	if a.Stats().NoRoute != 1 {
		t.Fatalf("NoRoute = %d, want 1", a.Stats().NoRoute)
	}
}

func TestBindErrors(t *testing.T) {
	_, _, a, _, _, _ := newPair(t)
	local := ParseAddr("10.0.0.1")
	if err := a.Bind(AddrPort{Addr: local, Port: 80}, func(*Datagram) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Bind(AddrPort{Addr: local, Port: 80}, func(*Datagram) {}); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("double bind: %v, want ErrPortInUse", err)
	}
	if err := a.Bind(AddrPort{Addr: ParseAddr("9.9.9.9"), Port: 80}, func(*Datagram) {}); !errors.Is(err, ErrNotLocal) {
		t.Fatalf("foreign bind: %v, want ErrNotLocal", err)
	}
	if err := a.Bind(AddrPort{Addr: local, Port: 81}, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestUnbind(t *testing.T) {
	loop, _, a, b, _, _ := newPair(t)
	dst := AddrPort{Addr: ParseAddr("10.0.0.2"), Port: 80}
	n := 0
	b.Bind(dst, func(*Datagram) { n++ })
	a.Send(&Datagram{Src: AddrPort{Addr: ParseAddr("10.0.0.1"), Port: 1}, Dst: dst, Size: 1})
	loop.Run()
	b.Unbind(dst)
	a.Send(&Datagram{Src: AddrPort{Addr: ParseAddr("10.0.0.1"), Port: 1}, Dst: dst, Size: 1})
	loop.Run()
	if n != 1 {
		t.Fatalf("delivered %d, want 1 (second send after unbind)", n)
	}
	if b.Stats().NoSocket != 1 {
		t.Fatalf("NoSocket = %d, want 1", b.Stats().NoSocket)
	}
}

func TestWildcardBind(t *testing.T) {
	loop, _, a, b, _, _ := newPair(t)
	b.AddAddress(ParseAddr("10.0.0.3"))
	var got []*Datagram
	if err := b.Bind(AddrPort{Addr: 0, Port: 443}, func(dg *Datagram) { got = append(got, dg) }); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []string{"10.0.0.2", "10.0.0.3"} {
		a.Send(&Datagram{
			Src: AddrPort{Addr: ParseAddr("10.0.0.1"), Port: 1},
			Dst: AddrPort{Addr: ParseAddr(dst), Port: 443}, Size: 1,
		})
	}
	loop.Run()
	if len(got) != 2 {
		t.Fatalf("wildcard delivered %d, want 2", len(got))
	}
}

func TestSpecificBeatsWildcard(t *testing.T) {
	loop, _, a, b, _, _ := newPair(t)
	addr := ParseAddr("10.0.0.2")
	var hit string
	b.Bind(AddrPort{Addr: 0, Port: 80}, func(*Datagram) { hit = "wildcard" })
	b.Bind(AddrPort{Addr: addr, Port: 80}, func(*Datagram) { hit = "specific" })
	a.Send(&Datagram{Src: AddrPort{Addr: ParseAddr("10.0.0.1"), Port: 1}, Dst: AddrPort{Addr: addr, Port: 80}, Size: 1})
	loop.Run()
	if hit != "specific" {
		t.Fatalf("delivered to %q, want specific", hit)
	}
}

func TestBindEphemeralUnique(t *testing.T) {
	_, _, a, _, _, _ := newPair(t)
	local := ParseAddr("10.0.0.1")
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		ap, err := a.BindEphemeral(local, func(*Datagram) {})
		if err != nil {
			t.Fatal(err)
		}
		if seen[ap.Port] {
			t.Fatalf("ephemeral port %d reused", ap.Port)
		}
		seen[ap.Port] = true
	}
}

func TestBindEphemeralForeignAddr(t *testing.T) {
	_, _, a, _, _, _ := newPair(t)
	if _, err := a.BindEphemeral(ParseAddr("1.1.1.1"), func(*Datagram) {}); !errors.Is(err, ErrNotLocal) {
		t.Fatalf("ephemeral on foreign addr: %v", err)
	}
}

func TestForwarding(t *testing.T) {
	// a -- r -- b: r forwards between two subnets.
	loop := sim.NewLoop()
	net := NewNetwork(loop)
	a := net.NewNamespace("a")
	r := net.NewNamespace("r")
	b := net.NewNamespace("b")
	a.AddAddress(ParseAddr("10.0.1.1"))
	r.AddAddress(ParseAddr("10.0.1.254"))
	r.AddAddress(ParseAddr("10.0.2.254"))
	b.AddAddress(ParseAddr("10.0.2.1"))
	ea, eraA := Connect(a, r, nil, nil)
	erB, eb := Connect(r, b, nil, nil)
	_ = eraA
	a.AddDefaultRoute(ea)
	r.AddRoute(ParseAddr("10.0.2.0"), 24, erB)
	r.AddRoute(ParseAddr("10.0.1.0"), 24, eraA)
	b.AddDefaultRoute(eb)

	var got *Datagram
	b.Bind(AddrPort{Addr: ParseAddr("10.0.2.1"), Port: 80}, func(dg *Datagram) { got = dg })
	a.Send(&Datagram{
		Src: AddrPort{Addr: ParseAddr("10.0.1.1"), Port: 1234},
		Dst: AddrPort{Addr: ParseAddr("10.0.2.1"), Port: 80}, Size: 64,
	})
	loop.Run()
	if got == nil {
		t.Fatal("forwarded datagram not delivered")
	}
	if r.Stats().Forwarded != 1 {
		t.Fatalf("router Forwarded = %d, want 1", r.Stats().Forwarded)
	}
	if got.TTL != DefaultTTL-1 {
		t.Fatalf("TTL = %d, want %d", got.TTL, DefaultTTL-1)
	}
}

func TestLongestPrefixWins(t *testing.T) {
	loop := sim.NewLoop()
	net := NewNetwork(loop)
	a := net.NewNamespace("a")
	b := net.NewNamespace("b")
	c := net.NewNamespace("c")
	a.AddAddress(ParseAddr("10.0.0.1"))
	b.AddAddress(ParseAddr("10.0.1.1"))
	c.AddAddress(ParseAddr("10.0.1.2"))
	eab, ebA := Connect(a, b, nil, nil)
	eac, ecA := Connect(a, c, nil, nil)
	_, _ = ebA, ecA
	a.AddDefaultRoute(eab)                     // default via b
	a.AddRoute(ParseAddr("10.0.1.2"), 32, eac) // /32 via c
	b.AddDefaultRoute(ebA)
	c.AddDefaultRoute(ecA)

	hitC := false
	c.Bind(AddrPort{Addr: ParseAddr("10.0.1.2"), Port: 80}, func(*Datagram) { hitC = true })
	a.Send(&Datagram{Src: AddrPort{Addr: ParseAddr("10.0.0.1"), Port: 1}, Dst: AddrPort{Addr: ParseAddr("10.0.1.2"), Port: 80}, Size: 1})
	loop.Run()
	if !hitC {
		t.Fatal("longest-prefix route not taken")
	}
}

func TestTTLExceededDropsLoop(t *testing.T) {
	// Two routers with default routes pointing at each other; a datagram
	// for an address neither owns must die by TTL, not loop forever.
	loop := sim.NewLoop()
	net := NewNetwork(loop)
	r1 := net.NewNamespace("r1")
	r2 := net.NewNamespace("r2")
	r1.AddAddress(ParseAddr("10.0.0.1"))
	r2.AddAddress(ParseAddr("10.0.0.2"))
	e1, e2 := Connect(r1, r2, nil, nil)
	r1.AddDefaultRoute(e1)
	r2.AddDefaultRoute(e2)
	err := r1.Send(&Datagram{
		Src: AddrPort{Addr: ParseAddr("10.0.0.1"), Port: 1},
		Dst: AddrPort{Addr: ParseAddr("99.9.9.9"), Port: 80}, Size: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	loop.Run() // must terminate
	if r1.Stats().TTLExceeded+r2.Stats().TTLExceeded != 1 {
		t.Fatalf("TTL drop not recorded: r1=%+v r2=%+v", r1.Stats(), r2.Stats())
	}
}

func TestShapedLinkDelaysTraffic(t *testing.T) {
	loop := sim.NewLoop()
	net := NewNetwork(loop)
	a := net.NewNamespace("a")
	b := net.NewNamespace("b")
	a.AddAddress(ParseAddr("10.0.0.1"))
	b.AddAddress(ParseAddr("10.0.0.2"))
	up := netem.NewPipeline(netem.NewDelayBox(loop, 25*sim.Millisecond))
	down := netem.NewPipeline(netem.NewDelayBox(loop, 25*sim.Millisecond))
	ea, eb := Connect(a, b, up, down)
	a.AddDefaultRoute(ea)
	b.AddDefaultRoute(eb)

	var arrival sim.Time
	dst := AddrPort{Addr: ParseAddr("10.0.0.2"), Port: 80}
	b.Bind(dst, func(*Datagram) { arrival = loop.Now() })
	loop.Schedule(0, func(sim.Time) {
		a.Send(&Datagram{Src: AddrPort{Addr: ParseAddr("10.0.0.1"), Port: 1}, Dst: dst, Size: netem.MTU})
	})
	loop.Run()
	if arrival != 25*sim.Millisecond {
		t.Fatalf("arrival at %v, want 25ms", arrival)
	}
}

func TestConnectAcrossNetworksPanics(t *testing.T) {
	loop := sim.NewLoop()
	n1 := NewNetwork(loop)
	n2 := NewNetwork(loop)
	a := n1.NewNamespace("a")
	b := n2.NewNamespace("b")
	defer func() {
		if recover() == nil {
			t.Fatal("cross-network Connect did not panic")
		}
	}()
	Connect(a, b, nil, nil)
}

func TestNextFlowUnique(t *testing.T) {
	net := NewNetwork(sim.NewLoop())
	a := net.NextFlow()
	b := net.NextFlow()
	if a == b {
		t.Fatal("NextFlow returned duplicate")
	}
}

func TestNamespaceAutoName(t *testing.T) {
	net := NewNetwork(sim.NewLoop())
	ns := net.NewNamespace("")
	if ns.Name() == "" {
		t.Fatal("auto-generated name is empty")
	}
}

// TestDatagramString: a datagram prints as the netem packet it is.
func TestDatagramString(t *testing.T) {
	dg := &Datagram{
		Src:  AddrPort{Addr: ParseAddr("1.2.3.4"), Port: 80},
		Dst:  AddrPort{Addr: ParseAddr("5.6.7.8"), Port: 443},
		Flow: 3, Seq: 9, Size: 99,
	}
	want := "pkt{flow=3 seq=9 size=99}"
	if dg.String() != want {
		t.Fatalf("String = %q, want %q", dg.String(), want)
	}
}

func TestAddressesCount(t *testing.T) {
	net := NewNetwork(sim.NewLoop())
	ns := net.NewNamespace("x")
	for i := 1; i <= 20; i++ {
		ns.AddAddress(Addr(i))
	}
	ns.AddAddress(Addr(5)) // duplicate
	if ns.Addresses() != 20 {
		t.Fatalf("Addresses = %d, want 20", ns.Addresses())
	}
}

// recordBox is a zero-delay box that records every packet it is handed,
// with the header it carried at that moment, and optionally marks it CE
// and Corrupt before passing it on.
type recordBox struct {
	seen  []*netem.Packet
	hdrs  []netem.Packet
	mark  bool
	batch netem.BatchSink
}

func (b *recordBox) Send(p *netem.Packet) { b.SendBatch([]*netem.Packet{p}) }

func (b *recordBox) SendBatch(pkts []*netem.Packet) {
	for _, p := range pkts {
		b.seen = append(b.seen, p)
		b.hdrs = append(b.hdrs, *p)
		if b.mark {
			p.CE, p.Corrupt = true, true
		}
	}
	b.batch(pkts)
}

func (b *recordBox) SetSink(netem.Sink)             {}
func (b *recordBox) SetBatchSink(s netem.BatchSink) { b.batch = s }
func (b *recordBox) Stats() netem.BoxStats          { return netem.BoxStats{} }

// countedPayload counts the releases a dropped packet owes its payload.
type countedPayload struct{ released int }

func (c *countedPayload) Release()   { c.released++ }
func (c *countedPayload) Clone() any { return c }

// TestBoxSeesTheSentDatagram: the datagram a namespace sends is the packet
// every box on the link queues and the packet the socket handler gets,
// header and payload included.
func TestBoxSeesTheSentDatagram(t *testing.T) {
	loop := sim.NewLoop()
	net := NewNetwork(loop)
	a, b := net.NewNamespace("a"), net.NewNamespace("b")
	a.AddAddress(ParseAddr("10.0.0.1"))
	b.AddAddress(ParseAddr("10.0.0.2"))
	box := &recordBox{}
	ea, eb := Connect(a, b, netem.NewPipeline(box), nil)
	a.AddDefaultRoute(ea)
	b.AddDefaultRoute(eb)
	src := AddrPort{Addr: ParseAddr("10.0.0.1"), Port: 5000}
	dst := AddrPort{Addr: ParseAddr("10.0.0.2"), Port: 80}
	payload := &countedPayload{}
	var got *Datagram
	var gotPayload any
	if err := b.Bind(dst, func(dg *Datagram) { got, gotPayload = dg, dg.Payload }); err != nil {
		t.Fatal(err)
	}
	dg := net.NewDatagram()
	dg.Src, dg.Dst, dg.Size, dg.Payload = src, dst, 100, payload
	if err := a.Send(dg); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	if len(box.seen) != 1 || box.seen[0] != dg {
		t.Fatalf("box saw %v, want the sent datagram %p", box.seen, dg)
	}
	if h := box.hdrs[0]; h.Src != src || h.Dst != dst || h.TTL != DefaultTTL || h.Payload != payload {
		t.Fatalf("box saw src %v dst %v ttl %d payload %v, want %v %v %d %p", h.Src, h.Dst, h.TTL, h.Payload, src, dst, DefaultTTL, payload)
	}
	if got != dg || gotPayload != payload {
		t.Fatalf("handler got %p with payload %v, want the sent datagram %p with %p", got, gotPayload, dg, payload)
	}
	if payload.released != 0 {
		t.Fatalf("delivered payload released %d times, want 0", payload.released)
	}
	if n := net.Pools().OutstandingPackets(); n != 0 {
		t.Fatalf("OutstandingPackets = %d after delivery, want 0", n)
	}
}

// TestMarksSurviveForwarding: CE and Corrupt marks put on a datagram by a
// box on the first link of a-r-b reach the socket at b after the second
// crossing, and delivered and TTL-dropped datagrams both go back to the
// pool.
func TestMarksSurviveForwarding(t *testing.T) {
	loop := sim.NewLoop()
	net := NewNetwork(loop)
	a, r, b := net.NewNamespace("a"), net.NewNamespace("r"), net.NewNamespace("b")
	a.AddAddress(ParseAddr("10.0.1.1"))
	r.AddAddress(ParseAddr("10.0.1.254"))
	b.AddAddress(ParseAddr("10.0.2.1"))
	ea, _ := Connect(a, r, netem.NewPipeline(&recordBox{mark: true}), nil)
	erB, eb := Connect(r, b, nil, nil)
	a.AddDefaultRoute(ea)
	r.AddRoute(ParseAddr("10.0.2.0"), 24, erB)
	b.AddDefaultRoute(eb)
	dst := AddrPort{Addr: ParseAddr("10.0.2.1"), Port: 80}
	var ce, corrupt bool
	delivered := 0
	b.Bind(dst, func(dg *Datagram) { ce, corrupt, delivered = dg.CE, dg.Corrupt, delivered+1 })
	send := func(ttl uint8, payload any) {
		dg := net.NewDatagram()
		dg.Src, dg.Dst, dg.Size, dg.TTL, dg.Payload = AddrPort{Addr: ParseAddr("10.0.1.1"), Port: 1}, dst, 64, ttl, payload
		if err := a.Send(dg); err != nil {
			t.Fatal(err)
		}
	}
	send(0, nil)
	if n := net.Pools().OutstandingPackets(); n != 1 {
		t.Fatalf("OutstandingPackets = %d in flight, want 1", n)
	}
	loop.Run()
	if delivered != 1 || !ce || !corrupt {
		t.Fatalf("delivered %d with CE %v Corrupt %v, want 1 with both marks", delivered, ce, corrupt)
	}
	if n := net.Pools().OutstandingPackets(); n != 0 {
		t.Fatalf("OutstandingPackets = %d after delivery, want 0", n)
	}
	// TTL 1 dies at r, and the drop releases the payload.
	payload := &countedPayload{}
	send(1, payload)
	loop.Run()
	if r.Stats().TTLExceeded != 1 || delivered != 1 || payload.released != 1 {
		t.Fatalf("TTLExceeded %d, delivered %d, released %d; want 1, 1, 1",
			r.Stats().TTLExceeded, delivered, payload.released)
	}
	if n := net.Pools().OutstandingPackets(); n != 0 {
		t.Fatalf("OutstandingPackets = %d after a TTL drop, want 0", n)
	}
}
