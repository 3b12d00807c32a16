package tcpsim

import (
	"fmt"
	"testing"

	"repro/internal/netem"
	"repro/internal/nsim"
	"repro/internal/sim"
)

// ecnTestNet builds two namespaces joined by a 10 ms-each-way link whose
// server->client direction runs an 8 Mbit/s bottleneck behind the given
// qdisc, the topology every test in this file shares.
func ecnTestNet(t *testing.T, downQ netem.Qdisc) (*sim.Loop, *Stack, *Stack) {
	t.Helper()
	loop := sim.NewLoop()
	net := nsim.NewNetwork(loop)
	cns := net.NewNamespace("client")
	sns := net.NewNamespace("server")
	cns.AddAddress(clientAddr)
	sns.AddAddress(serverAP.Addr)
	up := netem.NewPipeline(netem.NewDelayBox(loop, 10*sim.Millisecond))
	down := netem.NewPipeline(
		netem.NewRateBox(loop, 8_000_000, downQ),
		netem.NewDelayBox(loop, 10*sim.Millisecond),
	)
	ec, es := nsim.Connect(cns, sns, up, down)
	cns.AddDefaultRoute(ec)
	sns.AddDefaultRoute(es)
	return loop, NewStack(cns), NewStack(sns)
}

// dialEstablished runs a handshake and returns both sides' connections.
func dialEstablished(t *testing.T, loop *sim.Loop, cs, ss *Stack) (client, server *Conn) {
	t.Helper()
	if err := ss.Listen(serverAP, func(c *Conn) { server = c }); err != nil {
		t.Fatal(err)
	}
	client, err := cs.Dial(clientAddr, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(sim.Second)
	if client.State() != StateEstablished || server == nil || server.State() != StateEstablished {
		t.Fatalf("handshake incomplete: client %v, server %v", client.State(), server)
	}
	return client, server
}

// TestECNNegotiation: the handshake agrees on ECN exactly when both stacks
// enable it — the SYN offers with ECE|CWR, the SYN-ACK accepts with ECE
// alone — and either side declining leaves both conns non-ECT.
func TestECNNegotiation(t *testing.T) {
	cases := []struct {
		clientECN, serverECN, want bool
	}{
		{true, true, true},
		{true, false, false},
		{false, true, false},
		{false, false, false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("client=%v,server=%v", tc.clientECN, tc.serverECN), func(t *testing.T) {
			loop, cs, ss := ecnTestNet(t, netem.NewDropTail(0, 0))
			cs.SetECN(tc.clientECN)
			ss.SetECN(tc.serverECN)
			client, server := dialEstablished(t, loop, cs, ss)
			if client.ECNNegotiated() != tc.want || server.ECNNegotiated() != tc.want {
				t.Fatalf("negotiated client=%v server=%v, want %v",
					client.ECNNegotiated(), server.ECNNegotiated(), tc.want)
			}
		})
	}
}

// TestCEEchoUntilCWR pins the receiver half of RFC 3168: a CE-marked
// arrival starts the ECE echo, unmarked arrivals do not stop it, and it
// stops only when the sender answers with CWR. A segment carrying both CWR
// and a fresh CE mark leaves the echo running.
func TestCEEchoUntilCWR(t *testing.T) {
	loop, cs, ss := ecnTestNet(t, netem.NewDropTail(0, 0))
	cs.SetECN(true)
	ss.SetECN(true)
	client, _ := dialEstablished(t, loop, cs, ss)

	data := func(flags Flags, payload string) *Segment {
		seg := &Segment{Flags: flags, Seq: client.rcvNxt, Ack: client.sndNxt, Data: []byte(payload)}
		return seg
	}
	if client.ceEcho {
		t.Fatal("echo armed before any CE mark")
	}
	client.handleSegment(data(FlagACK, "a"), true) // CE-marked data
	if !client.ceEcho || client.stats.ECNMarksSeen != 1 {
		t.Fatalf("echo not armed by CE: ceEcho=%v marks=%d", client.ceEcho, client.stats.ECNMarksSeen)
	}
	client.handleSegment(data(FlagACK, "b"), false) // unmarked data
	if !client.ceEcho {
		t.Fatal("echo stopped without CWR")
	}
	// The echo rides every outgoing ACK while armed.
	if f := client.ecnFlags(); f&FlagECE == 0 {
		t.Fatalf("outgoing flags %v lack ECE while echoing", f)
	}
	client.handleSegment(data(FlagACK|FlagCWR, "c"), false) // sender answered
	if client.ceEcho {
		t.Fatal("CWR did not stop the echo")
	}
	client.handleSegment(data(FlagACK|FlagCWR, "d"), true) // CWR and a fresh mark
	if !client.ceEcho {
		t.Fatal("fresh CE on a CWR segment must re-arm the echo")
	}
}

// TestECNOneReductionPerRTT pins the sender half: a burst of ECE echoes
// within one window cuts cwnd exactly once; the next reduction becomes
// possible only after everything outstanding at the cut has been acked
// (one RTT later), and the cut sets CWR on the next data segment.
func TestECNOneReductionPerRTT(t *testing.T) {
	loop, cs, ss := ecnTestNet(t, netem.NewDropTail(0, 0))
	cs.SetECN(true)
	ss.SetECN(true)
	client, _ := dialEstablished(t, loop, cs, ss)

	// Queue a large write so a full window is outstanding, then let the
	// segments drain into the peer-free void of the test's direct-drive
	// phase: from here on the peer's side is played by hand-built ACKs.
	payload := make([]byte, 64*MSS)
	if err := client.Write(payload); err != nil {
		t.Fatal(err)
	}
	cwnd0 := client.Cwnd()
	if client.inflight() < cwnd0-MSS {
		t.Fatalf("window not filled: inflight %d, cwnd %d", client.inflight(), cwnd0)
	}

	ece := func(ack uint64) *Segment {
		return &Segment{Flags: FlagACK | FlagECE, Seq: client.rcvNxt, Ack: ack}
	}
	// A burst of five ECE ACKs, each acking one more segment of the same
	// window: exactly one reduction.
	base := client.sndUna
	for i := 1; i <= 5; i++ {
		client.handleSegment(ece(base+uint64(i*MSS)), false)
	}
	if client.stats.ECNReductions != 1 {
		t.Fatalf("reductions = %d after an in-window ECE burst, want 1", client.stats.ECNReductions)
	}
	if client.Cwnd() >= cwnd0 {
		t.Fatalf("cwnd %d not reduced from %d", client.Cwnd(), cwnd0)
	}
	if !client.cwrPending {
		t.Fatal("reduction did not schedule CWR")
	}
	// The next data segment announces the cut.
	if f := client.ecnFlags(); f&FlagCWR == 0 {
		t.Fatal("next segment lacks CWR")
	}
	// Acking past the recovery point re-opens the once-per-RTT gate.
	cwnd1 := client.Cwnd()
	client.handleSegment(ece(client.ecnRecover), false)
	if client.stats.ECNReductions != 2 {
		t.Fatalf("reductions = %d after the window turned over, want 2", client.stats.ECNReductions)
	}
	if client.Cwnd() >= cwnd1 {
		t.Fatalf("second cut did not shrink cwnd (%d vs %d)", client.Cwnd(), cwnd1)
	}
	if client.stats.Retransmits != 0 {
		t.Fatalf("ECN reductions caused %d retransmits", client.stats.Retransmits)
	}
}

// TestRetransmittedSynAckECEIsNotCongestion: a SYN-ACK retransmitted into
// an established connection carries ECE as the negotiation-accept bit
// (RFC 3168 §6.1.1), not a congestion echo — it must not cut the window.
func TestRetransmittedSynAckECEIsNotCongestion(t *testing.T) {
	loop, cs, ss := ecnTestNet(t, netem.NewDropTail(0, 0))
	cs.SetECN(true)
	ss.SetECN(true)
	client, _ := dialEstablished(t, loop, cs, ss)
	cwnd0 := client.Cwnd()
	client.handleSegment(&Segment{Flags: FlagSYN | FlagACK | FlagECE, Seq: 0, Ack: 1}, false)
	if client.stats.ECNReductions != 0 {
		t.Fatalf("retransmitted SYN-ACK's ECE caused %d reductions", client.stats.ECNReductions)
	}
	if client.Cwnd() != cwnd0 {
		t.Fatalf("cwnd moved from %d to %d on a negotiation bit", cwnd0, client.Cwnd())
	}
}

// TestECNTransferMarksNotDrops is the closed-loop test: a 2 MB transfer
// through a marking CoDel bottleneck must complete with CE marks echoed
// and the window cut, but zero AQM drops and zero retransmissions — the
// mark replaces the loss in the congestion feedback loop.
func TestECNTransferMarksNotDrops(t *testing.T) {
	q := netem.NewCoDel(netem.CoDelConfig{ECN: true})
	loop, cs, ss := ecnTestNet(t, q)
	cs.SetECN(true)
	ss.SetECN(true)

	const total = 2 << 20
	payload := make([]byte, total)
	var srv *Conn
	if err := ss.Listen(serverAP, func(c *Conn) {
		srv = c
		c.OnData(func([]byte) {})
		c.WriteStable(payload)
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := cs.Dial(clientAddr, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	conn.OnData(func(p []byte) { got += len(p) })
	conn.Close()
	loop.Run()

	if got != total {
		t.Fatalf("received %d bytes, want %d", got, total)
	}
	qs := q.QueueStats()
	if qs.AQMMarks == 0 {
		t.Fatal("bottleneck never marked")
	}
	if qs.AQMDrops != 0 || qs.TailDrops != 0 {
		t.Fatalf("marking queue dropped: %+v", qs)
	}
	cstats, sstats := conn.Statistics(), srv.Statistics()
	if cstats.ECNMarksSeen == 0 {
		t.Fatal("client never saw a CE mark")
	}
	if sstats.ECNReductions == 0 {
		t.Fatal("server never reduced on the echo")
	}
	if sstats.Retransmits != 0 || sstats.Timeouts != 0 {
		t.Fatalf("ECN transfer retransmitted: %+v", sstats)
	}
}

// lossyTransferTranscript runs the ECN golden scenario: a 2 MB transfer
// through an 8 Mbit/s bottleneck behind a shallow 16-packet droptail queue
// (recurring loss episodes exercise SACK recovery, fast retransmit and
// RTO), rendering the connection's externally visible life as a
// transcript. ecn enables negotiation on both stacks; against the
// ECN-oblivious droptail queue the wire behavior must not change.
func lossyTransferTranscript(ecn bool) string {
	loop := sim.NewLoop()
	network := nsim.NewNetwork(loop)
	cl := network.NewNamespace("client")
	sv := network.NewNamespace("server")
	cl.AddAddress(clientAddr)
	sv.AddAddress(serverAP.Addr)
	up := netem.NewPipeline(netem.NewDelayBox(loop, 10*sim.Millisecond))
	down := netem.NewPipeline(
		netem.NewRateBox(loop, 8_000_000, netem.NewDropTail(16, 0)),
		netem.NewDelayBox(loop, 10*sim.Millisecond),
	)
	ce, se := nsim.Connect(cl, sv, up, down)
	cl.AddDefaultRoute(ce)
	sv.AddDefaultRoute(se)

	payload := make([]byte, 2<<20)
	sstack := NewStack(sv)
	cstack := NewStack(cl)
	if ecn {
		sstack.SetECN(true)
		cstack.SetECN(true)
	}
	var srv *Conn
	if err := sstack.Listen(serverAP, func(c *Conn) {
		srv = c
		c.OnData(func([]byte) {})
		c.WriteStable(payload)
		c.Close()
	}); err != nil {
		panic(err)
	}
	conn, err := cstack.Dial(clientAddr, serverAP)
	if err != nil {
		panic(err)
	}
	got := 0
	var done sim.Time
	conn.OnData(func(p []byte) { got += len(p) })
	conn.OnClose(func(error) { done = loop.Now() })
	conn.Close()
	loop.Run()

	cs := conn.Statistics()
	ss := srv.Statistics()
	return fmt.Sprintf(
		"got=%d done=%v\nclient: rcvd=%d segsSent=%d segsRcvd=%d\nserver: sent=%d segsSent=%d segsRcvd=%d rexmit=%d fastrexmit=%d timeouts=%d\n",
		got, done,
		cs.BytesReceived, cs.SegmentsSent, cs.SegmentsRcvd,
		ss.BytesSent, ss.SegmentsSent, ss.SegmentsRcvd,
		ss.Retransmits, ss.FastRetransmits, ss.Timeouts)
}

// noECTGolden is the transcript of the golden scenario. It was captured on
// the tree immediately before ECN existed (PR 4's tcpsim) and re-pinned
// once since: tightening duplicate-ACK counting to RFC 6675's definition
// (only acks carrying previously unknown SACK coverage count) shifted one
// fast-retransmit trigger, changing the completion time by 11.5 ms while
// leaving every segment and retransmit count identical. Both halves of the
// fallback contract pin to it: a stack that never enables ECN must be
// byte-identical to the non-ECN stack, and an ECN-enabled pair talking
// through a drop-only (non-marking) path must fall back to byte-identical
// loss behavior — negotiation alone may not move a single segment.
const noECTGolden = "got=2097152 done=2.526212s\n" +
	"client: rcvd=2097152 segsSent=1459 segsRcvd=1458\n" +
	"server: sent=2097152 segsSent=1496 segsRcvd=1459 rexmit=56 fastrexmit=4 timeouts=1\n"

func TestNoECTFallbackGolden(t *testing.T) {
	if got := lossyTransferTranscript(false); got != noECTGolden {
		t.Fatalf("non-ECN transcript drifted from the pre-ECN golden:\n%svs\n%s", got, noECTGolden)
	}
}

func TestECNOverDropPathFallsBackGolden(t *testing.T) {
	if got := lossyTransferTranscript(true); got != noECTGolden {
		t.Fatalf("ECN-negotiated transcript over a drop-only path drifted from the pre-ECN golden:\n%svs\n%s", got, noECTGolden)
	}
}

// TestDropReleasePoolBalance closes the ROADMAP drop-release item: after a
// drop-heavy run (the golden scenario loses dozens of segments to the
// shallow queue) every pool must balance — packets, datagrams and segments
// all returned, nothing leaked to the garbage collector by any drop path.
func TestDropReleasePoolBalance(t *testing.T) {
	loop := sim.NewLoop()
	network := nsim.NewNetwork(loop)
	cl := network.NewNamespace("client")
	sv := network.NewNamespace("server")
	cl.AddAddress(clientAddr)
	sv.AddAddress(serverAP.Addr)
	drops := netem.NewDropTail(16, 0)
	up := netem.NewPipeline(netem.NewDelayBox(loop, 10*sim.Millisecond))
	down := netem.NewPipeline(
		netem.NewRateBox(loop, 8_000_000, drops),
		netem.NewDelayBox(loop, 10*sim.Millisecond),
	)
	ce, se := nsim.Connect(cl, sv, up, down)
	cl.AddDefaultRoute(ce)
	sv.AddDefaultRoute(se)

	payload := make([]byte, 2<<20)
	sstack := NewStack(sv)
	cstack := NewStack(cl)
	if err := sstack.Listen(serverAP, func(c *Conn) {
		c.OnData(func([]byte) {})
		c.WriteStable(payload)
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := cstack.Dial(clientAddr, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	conn.OnData(func(p []byte) { got += len(p) })
	conn.Close()
	loop.Run()

	if got != len(payload) {
		t.Fatalf("received %d bytes, want %d", got, len(payload))
	}
	if drops.QueueStats().Drops() == 0 {
		t.Fatal("run was not drop-heavy: shallow queue never dropped")
	}
	if cstack.Conns() != 0 || sstack.Conns() != 0 {
		t.Fatalf("connections survived the run: client %d, server %d", cstack.Conns(), sstack.Conns())
	}
	pools := network.Pools()
	if n := pools.OutstandingPackets(); n != 0 {
		t.Errorf("packet pool unbalanced: %d outstanding", n)
	}
	if n := pools.OutstandingDatagrams(); n != 0 {
		t.Errorf("datagram pool unbalanced: %d outstanding", n)
	}
	if n := cstack.Segments().Outstanding(); n != 0 {
		t.Errorf("client segment pool unbalanced: %d outstanding", n)
	}
	if n := sstack.Segments().Outstanding(); n != 0 {
		t.Errorf("server segment pool unbalanced: %d outstanding", n)
	}
}
