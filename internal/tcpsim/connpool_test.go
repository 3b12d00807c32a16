package tcpsim

import (
	"bytes"
	"testing"

	"repro/internal/nsim"
	"repro/internal/sim"
)

// poolTestNet is testNet with one ConnPool attached to both stacks and an
// echo listener that recycles server-side connections on close. The seen set
// records every distinct Conn handed out on either side.
func poolTestNet(t *testing.T, seen map[*Conn]bool) (*sim.Loop, *Stack, *ConnPool) {
	t.Helper()
	loop, cs, ss := testNet(t, 10*sim.Millisecond, 0, 0)
	pool := NewConnPool()
	cs.SetConnPool(pool)
	ss.SetConnPool(pool)
	err := ss.Listen(serverAP, func(c *Conn) {
		seen[c] = true
		if n := pool.Outstanding(); n != 2 {
			t.Errorf("outstanding = %d at accept, want 2 (the client's and the server's conn)", n)
		}
		c.OnData(func(p []byte) { c.Write(p); c.Close() })
		c.OnClose(func(error) { ss.Recycle(c) })
	})
	if err != nil {
		t.Fatal(err)
	}
	return loop, cs, pool
}

// runEcho dials, sends msg, expects it echoed, closes, and recycles the
// client connection from its OnClose callback. Returns the client Conn.
func runEcho(t *testing.T, loop *sim.Loop, cs *Stack, seen map[*Conn]bool, msg []byte) *Conn {
	t.Helper()
	conn, err := cs.Dial(clientAddr, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	seen[conn] = true
	var got []byte
	conn.OnData(func(p []byte) { got = append(got, p...) })
	conn.OnEstablished(func() { conn.Write(msg); conn.Close() })
	conn.OnClose(func(error) { cs.Recycle(conn) })
	loop.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo returned %q, want %q", got, msg)
	}
	return conn
}

func TestConnPoolReusesConnections(t *testing.T) {
	seen := map[*Conn]bool{}
	loop, cs, pool := poolTestNet(t, seen)

	// Four rounds, two endpoints each. The listener finds both connections
	// on loan at every accept, and each round ends with both recycled: the
	// ledger counts eight loans and eight returns.
	for round := 0; round < 4; round++ {
		msg := []byte("another round")
		if round == 0 {
			msg = []byte("round one")
		}
		runEcho(t, loop, cs, seen, msg)
		if pool.Outstanding() != 0 {
			t.Fatalf("round %d: outstanding = %d after full close+recycle, want 0", round, pool.Outstanding())
		}
	}
	// With recycling, the two connections from round one serve every later
	// round.
	if len(seen) != 2 {
		t.Fatalf("%d distinct Conns allocated over 4 rounds, want 2", len(seen))
	}
}

func TestRecycledConnStateIsFresh(t *testing.T) {
	seen := map[*Conn]bool{}
	loop, cs, _ := poolTestNet(t, seen)
	// One-segment messages: the echo listener closes after its first OnData.
	first := runEcho(t, loop, cs, seen, bytes.Repeat([]byte{0x5a}, 1000))
	firstFlow := first.Flow()

	second := runEcho(t, loop, cs, seen, []byte("small"))
	if len(seen) != 2 {
		t.Fatalf("%d distinct Conns, want 2 (reuse)", len(seen))
	}
	st := second.Statistics()
	if st.BytesSent != 5 || st.BytesReceived != 5 {
		t.Fatalf("recycled conn stats not reset: %+v", st)
	}
	if st.SRTT == 0 {
		t.Fatal("recycled conn took no RTT sample")
	}
	if second.Flow() == firstFlow {
		t.Fatal("recycled conn kept its old flow id")
	}
	if second.State() != StateClosed {
		t.Fatalf("state = %v after close, want closed", second.State())
	}
}

func TestRecycleGuards(t *testing.T) {
	seen := map[*Conn]bool{}
	loop, cs, pool := poolTestNet(t, seen)
	conn, err := cs.Dial(clientAddr, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	cs.Recycle(conn) // not closed: must be refused
	if pool.Outstanding() != 1 {
		t.Fatal("Recycle accepted a live connection")
	}
	conn.OnEstablished(func() { conn.Write([]byte("x")); conn.Close() })
	conn.OnClose(func(error) {
		cs.Recycle(conn)
		cs.Recycle(conn) // second call: must be a no-op
	})
	loop.Run()
	// Client conn recycled once (double call refused) + server conn once:
	// both loans are back, and the free list holds exactly those two.
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("outstanding = %d after double Recycle, want 0", n)
	}
	server, client := pool.free.Get(), pool.free.Get()
	if server == conn {
		server, client = client, server
	}
	if client != conn || !seen[server] {
		t.Fatal("free list does not hold the client's and the server's connection")
	}
	if pool.free.Get() != nil {
		t.Fatal("free list holds more than the two recycled connections")
	}

	// A pool-less stack ignores Recycle entirely.
	loop2, cs2, ss2 := testNet(t, 10*sim.Millisecond, 0, 0)
	ss2.Listen(serverAP, func(c *Conn) {
		c.OnData(func([]byte) {})
		c.Close()
	})
	c2, _ := cs2.Dial(clientAddr, serverAP)
	c2.OnEstablished(func() { c2.Close() })
	c2.OnClose(func(error) { cs2.Recycle(c2) })
	loop2.Run()
	if c2.pooledFree {
		t.Fatal("pool-less Recycle marked the connection pooled")
	}
}

func TestConnPoolAcrossLoopReset(t *testing.T) {
	// The engine's per-shard pattern: one loop and one ConnPool threaded
	// through sequential simulations, with Loop.Reset between cells. A
	// recycled connection's RTO timer handle is stale after the reset
	// (generation bump); reuse must still work because sim.Timer treats a
	// stale handle as unarmed and rearms it afresh.
	loop := sim.NewLoop()
	pool := NewConnPool()
	seen := map[*Conn]bool{}
	for round := 0; round < 3; round++ {
		loop.Reset()
		net := nsim.NewNetwork(loop)
		cns := net.NewNamespace("client")
		sns := net.NewNamespace("server")
		cns.AddAddress(clientAddr)
		sns.AddAddress(serverAP.Addr)
		ec, es := nsim.Connect(cns, sns, nil, nil)
		cns.AddDefaultRoute(ec)
		sns.AddDefaultRoute(es)
		cs, ss := NewStack(cns), NewStack(sns)
		cs.SetConnPool(pool)
		ss.SetConnPool(pool)
		ss.Listen(serverAP, func(c *Conn) {
			seen[c] = true
			c.OnData(func(p []byte) { c.Write(p); c.Close() })
			c.OnClose(func(error) { ss.Recycle(c) })
		})
		runEcho(t, loop, cs, seen, []byte("across reset"))
	}
	if len(seen) != 2 {
		t.Fatalf("%d distinct Conns across 3 reset rounds, want 2", len(seen))
	}
	if pool.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", pool.Outstanding())
	}
}
