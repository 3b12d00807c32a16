package tcpsim

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/netem"
	"repro/internal/nsim"
	"repro/internal/sim"
)

// testNet builds two namespaces joined by a symmetric delay link (one-way
// delay = rtt/2) with optional loss, returning client and server stacks.
func testNet(t *testing.T, rtt sim.Time, lossProb float64, seed uint64) (*sim.Loop, *Stack, *Stack) {
	t.Helper()
	loop := sim.NewLoop()
	net := nsim.NewNetwork(loop)
	cns := net.NewNamespace("client")
	sns := net.NewNamespace("server")
	cns.AddAddress(nsim.ParseAddr("10.0.0.1"))
	sns.AddAddress(nsim.ParseAddr("10.0.0.2"))
	mk := func() *netem.Pipeline {
		p := netem.NewPipeline(netem.NewDelayBox(loop, rtt/2))
		if lossProb > 0 {
			p.Append(netem.NewLossBox(lossProb, sim.NewRand(seed)))
		}
		return p
	}
	ec, es := nsim.Connect(cns, sns, mk(), mk())
	cns.AddDefaultRoute(ec)
	sns.AddDefaultRoute(es)
	return loop, NewStack(cns), NewStack(sns)
}

var (
	clientAddr = nsim.ParseAddr("10.0.0.1")
	serverAP   = nsim.AddrPort{Addr: nsim.ParseAddr("10.0.0.2"), Port: 80}
)

func TestHandshakeTakesOneRTT(t *testing.T) {
	loop, cs, ss := testNet(t, 100*sim.Millisecond, 0, 0)
	if err := ss.Listen(serverAP, func(*Conn) {}); err != nil {
		t.Fatal(err)
	}
	conn, err := cs.Dial(clientAddr, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	var at sim.Time = -1
	conn.OnEstablished(func() { at = loop.Now() })
	loop.Run()
	if at != 100*sim.Millisecond {
		t.Fatalf("established at %v, want 100ms (one RTT)", at)
	}
}

func TestEchoTransfer(t *testing.T) {
	loop, cs, ss := testNet(t, 40*sim.Millisecond, 0, 0)
	msg := []byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n")
	reply := []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi")

	ss.Listen(serverAP, func(c *Conn) {
		var got []byte
		c.OnData(func(p []byte) {
			got = append(got, p...)
			if len(got) == len(msg) {
				if !bytes.Equal(got, msg) {
					t.Errorf("server received %q, want %q", got, msg)
				}
				c.Write(reply)
			}
		})
	})

	conn, _ := cs.Dial(clientAddr, serverAP)
	var got []byte
	conn.OnData(func(p []byte) { got = append(got, p...) })
	conn.OnEstablished(func() { conn.Write(msg) })
	loop.Run()
	if !bytes.Equal(got, reply) {
		t.Fatalf("client received %q, want %q", got, reply)
	}
}

func TestWriteBeforeEstablishedIsBuffered(t *testing.T) {
	loop, cs, ss := testNet(t, 20*sim.Millisecond, 0, 0)
	var got []byte
	ss.Listen(serverAP, func(c *Conn) {
		c.OnData(func(p []byte) { got = append(got, p...) })
	})
	conn, _ := cs.Dial(clientAddr, serverAP)
	conn.Write([]byte("early")) // before handshake completes
	loop.Run()
	if string(got) != "early" {
		t.Fatalf("server got %q, want early", got)
	}
}

func TestWriteStableChunksIntegrity(t *testing.T) {
	// Many small stable chunks force segments to span chunk boundaries
	// (the gather path of nextSegment) and to alias chunks directly (the
	// zero-copy path). The received stream must be the exact
	// concatenation either way.
	loop, cs, ss := testNet(t, 25*sim.Millisecond, 0, 0)
	var want []byte
	chunks := make([][]byte, 0, 120)
	for i := 0; i < 120; i++ {
		chunk := make([]byte, 37+i*13%2000)
		for j := range chunk {
			chunk[j] = byte(i + j*7)
		}
		chunks = append(chunks, chunk)
		want = append(want, chunk...)
	}
	ss.Listen(serverAP, func(c *Conn) {
		c.WriteStable(chunks...)
		c.Close()
	})
	conn, _ := cs.Dial(clientAddr, serverAP)
	var got []byte
	conn.OnData(func(p []byte) { got = append(got, p...) })
	loop.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("transfer corrupted: got %d bytes, want %d", len(got), len(want))
	}
}

func TestWriteStableSegmentationMatchesWrite(t *testing.T) {
	// WriteStable of several chunks must produce the identical wire
	// traffic as one Write of their concatenation: segmentation ignores
	// chunk boundaries.
	run := func(stable bool) (uint64, []byte) {
		loop, cs, ss := testNet(t, 25*sim.Millisecond, 0, 0)
		head := []byte("HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n")
		body := bytes.Repeat([]byte{0xAB}, 5000)
		var sent uint64
		ss.Listen(serverAP, func(c *Conn) {
			if stable {
				c.WriteStable(head, body)
			} else {
				c.Write(append(append([]byte(nil), head...), body...))
			}
			c.Close()
		})
		conn, _ := cs.Dial(clientAddr, serverAP)
		var got []byte
		conn.OnData(func(p []byte) { got = append(got, p...) })
		loop.Run()
		st := conn.Statistics()
		sent = st.SegmentsRcvd
		return sent, got
	}
	segsA, gotA := run(false)
	segsB, gotB := run(true)
	if segsA != segsB {
		t.Fatalf("segment counts differ: Write %d vs WriteStable %d", segsA, segsB)
	}
	if !bytes.Equal(gotA, gotB) {
		t.Fatalf("byte streams differ")
	}
}

func TestLargeTransferIntegrity(t *testing.T) {
	loop, cs, ss := testNet(t, 30*sim.Millisecond, 0, 0)
	// 1 MiB of patterned data, far exceeding the initial window.
	const size = 1 << 20
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	ss.Listen(serverAP, func(c *Conn) { c.Write(payload); c.Close() })
	conn, _ := cs.Dial(clientAddr, serverAP)
	var got []byte
	conn.OnData(func(p []byte) { got = append(got, p...) })
	loop.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("transfer corrupted: got %d bytes, want %d", len(got), size)
	}
}

func TestSlowStartRampsOverRTTs(t *testing.T) {
	// With IW=10*MSS and ~14600B per RTT initially, a 300 KB response over
	// a 100ms RTT link takes several RTTs: first bytes after ~1.5 RTT
	// (handshake + request), completion multiple RTTs later.
	loop, cs, ss := testNet(t, 100*sim.Millisecond, 0, 0)
	const size = 300 << 10
	ss.Listen(serverAP, func(c *Conn) {
		c.OnData(func([]byte) {}) // request sink
		c.Write(make([]byte, size))
	})
	conn, _ := cs.Dial(clientAddr, serverAP)
	received := 0
	var done sim.Time
	conn.OnData(func(p []byte) {
		received += len(p)
		if received == size {
			done = loop.Now()
		}
	})
	loop.Run()
	if received != size {
		t.Fatalf("received %d, want %d", received, size)
	}
	// Handshake 1 RTT + at least 3 more RTTs of slow-start ramping
	// (10+20+40+80+... MSS per RTT to cover ~210 segments).
	if done < 350*sim.Millisecond {
		t.Fatalf("done at %v: faster than slow start allows", done)
	}
	if done > 900*sim.Millisecond {
		t.Fatalf("done at %v: too slow for loss-free slow start", done)
	}
}

func TestLossRecoveryIntegrity(t *testing.T) {
	// 2% loss each way: all data must still arrive, via retransmissions.
	loop, cs, ss := testNet(t, 40*sim.Millisecond, 0.02, 77)
	const size = 200 << 10
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	ss.Listen(serverAP, func(c *Conn) {
		c.OnData(func([]byte) {})
		c.Write(payload)
	})
	conn, _ := cs.Dial(clientAddr, serverAP)
	var got []byte
	conn.OnData(func(p []byte) { got = append(got, p...) })
	loop.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("lossy transfer corrupted: got %d bytes, want %d", len(got), size)
	}
}

func TestRetransmitCountedUnderLoss(t *testing.T) {
	loop, cs, ss := testNet(t, 40*sim.Millisecond, 0.05, 3)
	var server *Conn
	ss.Listen(serverAP, func(c *Conn) {
		server = c
		c.OnData(func([]byte) {})
		c.Write(make([]byte, 500<<10))
	})
	conn, _ := cs.Dial(clientAddr, serverAP)
	conn.OnData(func([]byte) {})
	loop.Run()
	if server == nil {
		t.Fatal("no server connection")
	}
	st := server.Statistics()
	if st.Retransmits == 0 {
		t.Fatal("5% loss produced zero retransmissions")
	}
	if st.FastRetransmits == 0 && st.Timeouts == 0 {
		t.Fatal("recovery happened without fast retransmit or RTO")
	}
}

func TestSRTTTracksPathRTT(t *testing.T) {
	loop, cs, ss := testNet(t, 20*sim.Millisecond, 0.01, 9)
	var server *Conn
	ss.Listen(serverAP, func(c *Conn) {
		server = c
		c.OnData(func([]byte) {})
		c.Write(make([]byte, 1<<20))
	})
	conn, _ := cs.Dial(clientAddr, serverAP)
	conn.OnData(func([]byte) {})
	loop.Run()
	// The transfer must complete despite losses (checked implicitly by Run
	// terminating) and the data sender's SRTT estimate must be near the
	// path RTT (queueing in the delay-only link is zero).
	st := server.Statistics()
	if st.SRTT < 15*sim.Millisecond || st.SRTT > 60*sim.Millisecond {
		t.Fatalf("SRTT = %v, want ~20ms", st.SRTT)
	}
}

func TestCloseHandshake(t *testing.T) {
	loop, cs, ss := testNet(t, 10*sim.Millisecond, 0, 0)
	var serverClosed, clientClosed bool
	ss.Listen(serverAP, func(c *Conn) {
		c.OnData(func([]byte) {})
		c.OnClose(func(err error) {
			if err != nil {
				t.Errorf("server close err: %v", err)
			}
			serverClosed = true
		})
		c.Write([]byte("bye"))
		c.Close()
	})
	conn, _ := cs.Dial(clientAddr, serverAP)
	conn.OnData(func([]byte) {})
	conn.OnClose(func(err error) {
		if err != nil {
			t.Errorf("client close err: %v", err)
		}
		clientClosed = true
	})
	conn.OnEstablished(func() { conn.Close() })
	loop.Run()
	if !serverClosed || !clientClosed {
		t.Fatalf("closed: server=%v client=%v, want both", serverClosed, clientClosed)
	}
	if cs.Conns() != 0 || ss.Conns() != 0 {
		t.Fatalf("connection table not empty: client=%d server=%d", cs.Conns(), ss.Conns())
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	loop, cs, ss := testNet(t, 10*sim.Millisecond, 0, 0)
	ss.Listen(serverAP, func(c *Conn) {})
	conn, _ := cs.Dial(clientAddr, serverAP)
	conn.Close()
	if err := conn.Write([]byte("x")); err == nil {
		t.Fatal("Write after Close succeeded")
	}
	loop.Run()
}

func TestAbortSendsRST(t *testing.T) {
	loop, cs, ss := testNet(t, 10*sim.Millisecond, 0, 0)
	var serverErr error
	gotClose := false
	ss.Listen(serverAP, func(c *Conn) {
		c.OnClose(func(err error) { serverErr = err; gotClose = true })
	})
	conn, _ := cs.Dial(clientAddr, serverAP)
	// Abort a tick after establishment so the server side has established
	// (and registered OnClose) before the RST arrives.
	conn.OnEstablished(func() {
		loop.Schedule(sim.Millisecond, func(sim.Time) { conn.Abort() })
	})
	loop.Run()
	if !gotClose {
		t.Fatal("server never saw the RST")
	}
	if serverErr == nil {
		t.Fatal("server close error is nil, want reset")
	}
}

func TestSynLostThenRecovered(t *testing.T) {
	// A listener that appears only after the first SYN would have been
	// dropped: the namespace drops SYNs to a port nothing binds, so dial
	// first, listen later, and rely on SYN retransmission.
	loop, cs, ss := testNet(t, 10*sim.Millisecond, 0, 0)
	conn, _ := cs.Dial(clientAddr, serverAP)
	var established sim.Time = -1
	conn.OnEstablished(func() { established = loop.Now() })
	// Listener appears at t=1.5s, after the first SYN (t=0) and its first
	// RTO retry (t=1s) were dropped.
	loop.Schedule(1500*sim.Millisecond, func(sim.Time) {
		ss.Listen(serverAP, func(*Conn) {})
	})
	loop.Run()
	if established < 1500*sim.Millisecond {
		t.Fatalf("established at %v, want after listener appeared", established)
	}
	if conn.Statistics().Retransmits == 0 {
		t.Fatal("SYN was never retransmitted")
	}
}

func TestTwoConnectionsSharePort(t *testing.T) {
	loop, cs, ss := testNet(t, 10*sim.Millisecond, 0, 0)
	accepted := 0
	ss.Listen(serverAP, func(c *Conn) {
		accepted++
		c.OnData(func(p []byte) { c.Write(p) }) // echo
	})
	done := 0
	for i := 0; i < 2; i++ {
		conn, err := cs.Dial(clientAddr, serverAP)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte{byte('a' + i)}
		conn.OnEstablished(func() { conn.Write(msg) })
		conn.OnData(func(p []byte) {
			if !bytes.Equal(p, msg) {
				t.Errorf("conn %d echoed %q, want %q", i, p, msg)
			}
			done++
		})
	}
	loop.Run()
	if accepted != 2 || done != 2 {
		t.Fatalf("accepted=%d done=%d, want 2,2", accepted, done)
	}
}

func TestListenErrors(t *testing.T) {
	_, _, ss := testNet(t, sim.Millisecond, 0, 0)
	if err := ss.Listen(serverAP, nil); err == nil {
		t.Fatal("nil accept allowed")
	}
	if err := ss.Listen(serverAP, func(*Conn) {}); err != nil {
		t.Fatal(err)
	}
	if err := ss.Listen(serverAP, func(*Conn) {}); err == nil {
		t.Fatal("double listen allowed")
	}
}

func TestMultiAddressListeners(t *testing.T) {
	// ReplayShell's pattern: many server addresses in one namespace, one
	// listener per (addr, port) pair, same port number.
	loop := sim.NewLoop()
	net := nsim.NewNetwork(loop)
	cns := net.NewNamespace("client")
	sns := net.NewNamespace("servers")
	cns.AddAddress(clientAddr)
	a1, a2 := nsim.ParseAddr("93.184.216.34"), nsim.ParseAddr("151.101.1.164")
	sns.AddAddress(a1)
	sns.AddAddress(a2)
	ec, es := nsim.Connect(cns, sns, nil, nil)
	cns.AddDefaultRoute(ec)
	sns.AddDefaultRoute(es)
	cs, ss := NewStack(cns), NewStack(sns)

	var hit1, hit2 bool
	ss.Listen(nsim.AddrPort{Addr: a1, Port: 80}, func(c *Conn) { hit1 = true })
	ss.Listen(nsim.AddrPort{Addr: a2, Port: 80}, func(c *Conn) { hit2 = true })

	cs.Dial(clientAddr, nsim.AddrPort{Addr: a1, Port: 80})
	cs.Dial(clientAddr, nsim.AddrPort{Addr: a2, Port: 80})
	loop.Run()
	if !hit1 || !hit2 {
		t.Fatalf("listeners hit: %v %v, want both", hit1, hit2)
	}
}

// TestSynRefusedOnUnlistenedAddress: a SYN to an owned address on a port
// the stack listens on only for another address is refused with RST|ACK,
// so the dial fails in one round trip instead of after its whole SYN
// retransmission ladder.
func TestSynRefusedOnUnlistenedAddress(t *testing.T) {
	loop, cs, ss := testNet(t, 20*sim.Millisecond, 0, 0)
	other := nsim.AddrPort{Addr: nsim.ParseAddr("10.0.0.3"), Port: serverAP.Port}
	ss.Namespace().AddAddress(other.Addr)
	if err := ss.Listen(serverAP, func(*Conn) { t.Error("the refused SYN was accepted") }); err != nil {
		t.Fatal(err)
	}
	conn, err := cs.Dial(clientAddr, other)
	if err != nil {
		t.Fatal(err)
	}
	var closedAt sim.Time = -1
	var closeErr error
	conn.OnClose(func(err error) { closedAt, closeErr = loop.Now(), err })
	loop.Run()
	if closeErr == nil || !strings.Contains(closeErr.Error(), "reset by peer") {
		t.Fatalf("dial closed with error %v, want a reset", closeErr)
	}
	if closedAt != 20*sim.Millisecond {
		t.Fatalf("dial failed at %v, want after one 20ms round trip", closedAt)
	}
	if n := conn.Statistics().Retransmits; n != 0 {
		t.Fatalf("SYN retransmitted %d times before the reset", n)
	}
	if n := cs.Segments().Outstanding() + ss.Segments().Outstanding(); n != 0 {
		t.Fatalf("%d segments outstanding after the refusal", n)
	}
}

func TestFlagsString(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "SYN|ACK" {
		t.Fatalf("Flags string = %q", got)
	}
	if got := Flags(0).String(); got != "none" {
		t.Fatalf("zero flags = %q", got)
	}
}

func TestSegmentSeqLen(t *testing.T) {
	cases := []struct {
		seg  Segment
		want uint64
	}{
		{Segment{Flags: FlagSYN}, 1},
		{Segment{Flags: FlagFIN | FlagACK}, 1},
		{Segment{Flags: FlagACK}, 0},
		{Segment{Flags: FlagACK, Data: make([]byte, 100)}, 100},
		{Segment{Flags: FlagFIN | FlagACK, Data: make([]byte, 10)}, 11},
	}
	for _, c := range cases {
		if got := c.seg.SeqLen(); got != c.want {
			t.Errorf("SeqLen(%v) = %d, want %d", &c.seg, got, c.want)
		}
	}
}

func TestStateString(t *testing.T) {
	states := []State{StateSynSent, StateSynRcvd, StateEstablished, StateClosing, StateClosed}
	seen := map[string]bool{}
	for _, s := range states {
		str := s.String()
		if str == "" || str == "invalid" || seen[str] {
			t.Fatalf("State(%d).String() = %q", s, str)
		}
		seen[str] = true
	}
}

func TestThroughputApproachesBottleneck(t *testing.T) {
	// A long transfer over a 10 Mbit/s RateBox bottleneck should achieve
	// close to 10 Mbit/s goodput.
	loop := sim.NewLoop()
	net := nsim.NewNetwork(loop)
	cns := net.NewNamespace("client")
	sns := net.NewNamespace("server")
	cns.AddAddress(clientAddr)
	sns.AddAddress(serverAP.Addr)
	up := netem.NewPipeline(
		netem.NewDelayBox(loop, 10*sim.Millisecond),
		netem.NewRateBox(loop, 10_000_000, netem.NewDropTail(256, 0)),
	)
	down := netem.NewPipeline(
		netem.NewDelayBox(loop, 10*sim.Millisecond),
		netem.NewRateBox(loop, 10_000_000, netem.NewDropTail(256, 0)),
	)
	ec, es := nsim.Connect(cns, sns, up, down)
	cns.AddDefaultRoute(ec)
	sns.AddDefaultRoute(es)
	cs, ss := NewStack(cns), NewStack(sns)

	const size = 4 << 20 // 4 MiB
	ss.Listen(serverAP, func(c *Conn) {
		c.OnData(func([]byte) {})
		c.Write(make([]byte, size))
	})
	conn, _ := cs.Dial(clientAddr, serverAP)
	received := 0
	var done sim.Time
	conn.OnData(func(p []byte) {
		received += len(p)
		if received == size {
			done = loop.Now()
		}
	})
	loop.Run()
	if received != size {
		t.Fatalf("received %d/%d", received, size)
	}
	goodput := float64(size*8) / done.Seconds()
	if goodput < 7_000_000 {
		t.Fatalf("goodput %.0f bit/s, want >7 Mbit/s of the 10 Mbit/s bottleneck", goodput)
	}
	if goodput > 10_500_000 {
		t.Fatalf("goodput %.0f bit/s exceeds the bottleneck", goodput)
	}
}

func TestDataSegmentsAreNotDuplicateAcks(t *testing.T) {
	// Regression: a peer streaming data carries a stale piggybacked ack
	// number in every segment. Those must not count as duplicate ACKs
	// (RFC 5681) — before the fix, three of them triggered a spurious
	// fast retransmit and collapsed cwnd with zero actual loss.
	loop, cs, ss := testNet(t, 100*sim.Millisecond, 0, 0)
	var server *Conn
	ss.Listen(serverAP, func(c *Conn) {
		server = c
		c.OnData(func([]byte) {})
		// Stream a large response while the client keeps sending small
		// requests (whose ACKs of server data lag).
		c.Write(make([]byte, 500<<10))
	})
	conn, _ := cs.Dial(clientAddr, serverAP)
	conn.OnData(func([]byte) {})
	conn.OnEstablished(func() {
		var sendReq func(sim.Time)
		n := 0
		sendReq = func(sim.Time) {
			conn.Write(make([]byte, 200))
			n++
			if n < 30 {
				loop.Schedule(10*sim.Millisecond, sendReq)
			}
		}
		loop.Schedule(0, sendReq)
	})
	loop.Run()
	for name, c := range map[string]*Conn{"client": conn, "server": server} {
		st := c.Statistics()
		if st.FastRetransmits != 0 || st.Retransmits != 0 || st.Timeouts != 0 {
			t.Fatalf("%s: spurious recovery on lossless path: %+v", name, st)
		}
	}
}

func TestNoSpuriousRTOOnStablePath(t *testing.T) {
	// Regression: on a path with perfectly stable RTT, RTTVAR decays to
	// zero; without RFC 6298's granularity term the RTO converges to
	// exactly one RTT and races the returning ACKs, collapsing cwnd with
	// zero loss. Serial request/response keeps taking fresh RTT samples.
	loop, cs, ss := testNet(t, 200*sim.Millisecond, 0, 0)
	var server *Conn
	ss.Listen(serverAP, func(c *Conn) {
		server = c
		c.OnData(func(p []byte) {
			for i := 0; i < len(p)/100; i++ {
				c.Write(make([]byte, 4000))
			}
		})
	})
	conn, _ := cs.Dial(clientAddr, serverAP)
	received, sent := 0, 0
	conn.OnData(func(p []byte) {
		received += len(p)
		if received >= sent*4000 && sent < 40 {
			sent++
			conn.Write(make([]byte, 100))
		}
	})
	conn.OnEstablished(func() { sent++; conn.Write(make([]byte, 100)) })
	loop.Run()
	if received != 40*4000 {
		t.Fatalf("received %d, want %d", received, 40*4000)
	}
	st := server.Statistics()
	if st.Timeouts != 0 || st.Retransmits != 0 {
		t.Fatalf("spurious recovery on lossless stable path: %+v", st)
	}
}
