package tcpsim

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/nsim"
	"repro/internal/sim"
)

// impairNet builds two namespaces joined by symmetric delay links whose
// downstream (server→client) direction carries an extra impairment box, and
// returns the network (for pool ledgers) along with both stacks.
func impairNet(t *testing.T, rtt sim.Time, down netem.Box) (*sim.Loop, *nsim.Network, *Stack, *Stack) {
	t.Helper()
	loop := sim.NewLoop()
	network := nsim.NewNetwork(loop)
	cns := network.NewNamespace("client")
	sns := network.NewNamespace("server")
	cns.AddAddress(clientAddr)
	sns.AddAddress(serverAP.Addr)
	up := netem.NewPipeline(netem.NewDelayBox(loop, rtt/2))
	dn := netem.NewPipeline(down, netem.NewDelayBox(loop, rtt/2))
	ec, es := nsim.Connect(cns, sns, up, dn)
	cns.AddDefaultRoute(ec)
	sns.AddDefaultRoute(es)
	return loop, network, NewStack(cns), NewStack(sns)
}

// download runs a server→client bulk transfer and returns the client's
// received byte count plus both connections' final stats.
func download(t *testing.T, loop *sim.Loop, cs, ss *Stack, size int) (int, Stats, Stats) {
	t.Helper()
	payload := make([]byte, size)
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
	if srv == nil {
		t.Fatal("server never accepted")
	}
	return got, conn.Statistics(), srv.Statistics()
}

// Segments ride the network as the payload of datagrams, which are netem
// packets: a drop releases the segment and a duplicate clones it.
var _ netem.Payload = (*Segment)(nil)

// TestDuplicationPoolBalance is the duplication-heavy leak audit: with a
// DuplicateBox cloning ~20% of the downstream segments, every clone takes a
// real slot in the packet (datagram) and segment pools, and after the run
// every ledger must balance — a refcount leak or double-release anywhere in
// the clone chain (netem Packet.Clone → tcpsim Segment.Clone) shows up
// here as a nonzero outstanding count.
func TestDuplicationPoolBalance(t *testing.T) {
	dup := netem.NewDuplicateBox(0.2, 0.2, sim.NewRand(77))
	loop, network, cs, ss := impairNet(t, 20*sim.Millisecond, dup)
	const size = 1 << 20
	got, cstats, _ := download(t, loop, cs, ss, size)
	if got != size {
		t.Fatalf("received %d bytes, want %d", got, size)
	}
	if dup.Duplicated() == 0 {
		t.Fatal("run was not duplication-heavy: no clones emitted")
	}
	if cstats.DupBytesRcvd == 0 {
		t.Fatal("client saw no duplicate bytes despite duplicated segments")
	}
	if cs.Conns() != 0 || ss.Conns() != 0 {
		t.Fatalf("connections survived: client %d, server %d", cs.Conns(), ss.Conns())
	}
	pools := network.Pools()
	if n := pools.OutstandingPackets(); n != 0 {
		t.Errorf("packet pool unbalanced: %d outstanding", n)
	}
	if n := pools.OutstandingDatagrams(); n != 0 {
		t.Errorf("datagram pool unbalanced: %d outstanding", n)
	}
	if n := cs.Segments().Outstanding(); n != 0 {
		t.Errorf("client segment pool unbalanced: %d outstanding", n)
	}
	if n := ss.Segments().Outstanding(); n != 0 {
		t.Errorf("server segment pool unbalanced: %d outstanding", n)
	}
}

// TestDuplicationNoSpuriousFastRetransmit is the satellite dupack
// regression: a duplicated data segment makes the receiver re-ACK at the
// current cumulative point. Those re-ACKs carry no previously unknown SACK
// coverage, so under RFC 6675's DupAck definition they must NOT count
// toward fast retransmit — nothing was lost, and retransmitting would be
// pure waste. Before the rule was tightened, three clones in a row of
// already-delivered segments faked a loss signal.
func TestDuplicationNoSpuriousFastRetransmit(t *testing.T) {
	// Heavy, bursty duplication: prob 0.5 with correlation produces runs of
	// 3+ consecutive duplicates — the exact shape that used to fake a loss.
	dup := netem.NewDuplicateBox(0.5, 0.5, sim.NewRand(3))
	loop, _, cs, ss := impairNet(t, 20*sim.Millisecond, dup)
	const size = 1 << 20
	got, cstats, sstats := download(t, loop, cs, ss, size)
	if got != size {
		t.Fatalf("received %d bytes, want %d", got, size)
	}
	if dup.Duplicated() < 100 {
		t.Fatalf("only %d clones — not a duplication storm", dup.Duplicated())
	}
	if cstats.DupBytesRcvd == 0 {
		t.Fatal("client counted no duplicate bytes")
	}
	// The path loses nothing, so there is nothing to retransmit: any
	// retransmission here was triggered by a duplicate-faked signal.
	if sstats.FastRetransmits != 0 {
		t.Errorf("duplication faked %d fast retransmits on a lossless path", sstats.FastRetransmits)
	}
	if sstats.Retransmits != 0 {
		t.Errorf("duplication caused %d retransmits on a lossless path", sstats.Retransmits)
	}
}

// TestReorderStormTriggersFastRetransmit pins the other side of the dupack
// contract: a displacement long enough for 3+ segments to overtake opens a
// real hole at the receiver, the out-of-order arrivals each advance SACK
// coverage, and those acks DO count — fast retransmit must fire (RFC 5681
// behavior under heavy reordering) while the retransmit totals stay pinned.
func TestReorderStormTriggersFastRetransmit(t *testing.T) {
	loop := sim.NewLoop()
	// Hold displaced packets for 30ms on a 20ms-RTT path: dozens of later
	// segments overtake each displaced one.
	reorder := netem.NewReorderBox(loop, 0.05, 0.2, 1, 30*sim.Millisecond, sim.NewRand(9))
	network := nsim.NewNetwork(loop)
	cns := network.NewNamespace("client")
	sns := network.NewNamespace("server")
	cns.AddAddress(clientAddr)
	sns.AddAddress(serverAP.Addr)
	up := netem.NewPipeline(netem.NewDelayBox(loop, 10*sim.Millisecond))
	dn := netem.NewPipeline(reorder, netem.NewDelayBox(loop, 10*sim.Millisecond))
	ec, es := nsim.Connect(cns, sns, up, dn)
	cns.AddDefaultRoute(ec)
	sns.AddDefaultRoute(es)
	cs, ss := NewStack(cns), NewStack(sns)

	const size = 1 << 20
	got, cstats, sstats := download(t, loop, cs, ss, size)
	if got != size {
		t.Fatalf("received %d bytes, want %d", got, size)
	}
	if reorder.Displaced() == 0 {
		t.Fatal("no packet displaced — not a reorder storm")
	}
	if sstats.FastRetransmits == 0 {
		t.Fatal("reorder storm never triggered fast retransmit")
	}
	// Every fast retransmit here is spurious (the displaced original still
	// arrives), so the receiver must observe the retransmitted bytes as
	// duplicates — the goodput-vs-delivered gap the DupBytesRcvd stat exists
	// to expose.
	if cstats.DupBytesRcvd == 0 {
		t.Fatal("spurious retransmits produced no counted duplicate bytes")
	}
	// Regression pin: the retransmit totals under this exact storm. A
	// change in dupack counting, SACK scoreboard, or reorder release order
	// moves these numbers.
	if sstats.FastRetransmits != 6 || sstats.Retransmits != 38 || sstats.Timeouts != 0 {
		t.Errorf("retransmit totals drifted: fast=%d total=%d timeouts=%d, want fast=6 total=38 timeouts=0",
			sstats.FastRetransmits, sstats.Retransmits, sstats.Timeouts)
	}
}

// TestMildReorderNoRetransmit: a displacement shorter than three overtaking
// segments must ride out on the dupack threshold — the storm test's
// counterpart showing the stack does not panic on benign reordering.
func TestMildReorderNoRetransmit(t *testing.T) {
	loop := sim.NewLoop()
	// A 10 Mbps rate box spaces full segments 1.2ms apart, so a 1ms hold
	// lets at most one segment overtake each displaced packet — well under
	// the 3-dupack threshold. (Without pacing, a burst window overtakes the
	// displaced packet wholesale and fast retransmit fires legitimately.)
	reorder := netem.NewReorderBox(loop, 0.1, 0, 1, sim.Millisecond, sim.NewRand(4))
	network := nsim.NewNetwork(loop)
	cns := network.NewNamespace("client")
	sns := network.NewNamespace("server")
	cns.AddAddress(clientAddr)
	sns.AddAddress(serverAP.Addr)
	up := netem.NewPipeline(netem.NewDelayBox(loop, 20*sim.Millisecond))
	dn := netem.NewPipeline(
		netem.NewRateBox(loop, 10_000_000, netem.NewDropTail(4096, 0)),
		reorder,
		netem.NewDelayBox(loop, 20*sim.Millisecond),
	)
	ec, es := nsim.Connect(cns, sns, up, dn)
	cns.AddDefaultRoute(ec)
	sns.AddDefaultRoute(es)
	cs, ss := NewStack(cns), NewStack(sns)

	const size = 256 << 10
	got, _, sstats := download(t, loop, cs, ss, size)
	if got != size {
		t.Fatalf("received %d bytes, want %d", got, size)
	}
	if reorder.Displaced() == 0 {
		t.Fatal("no packet displaced")
	}
	if sstats.FastRetransmits != 0 || sstats.Retransmits != 0 {
		t.Errorf("benign reordering caused retransmits: fast=%d total=%d",
			sstats.FastRetransmits, sstats.Retransmits)
	}
}

// TestCorruptionChecksumDrop: corrupted segments traverse the pipeline,
// occupy capacity, and die at the receiver's checksum — counted, recovered
// by retransmission, with all pools balancing afterward.
func TestCorruptionChecksumDrop(t *testing.T) {
	corrupt := netem.NewCorruptBox(0.03, 0, sim.NewRand(13))
	loop, network, cs, ss := impairNet(t, 20*sim.Millisecond, corrupt)
	const size = 1 << 20
	got, cstats, sstats := download(t, loop, cs, ss, size)
	if got != size {
		t.Fatalf("received %d bytes, want %d (corruption must be recovered)", got, size)
	}
	if corrupt.Corrupted() == 0 {
		t.Fatal("no packet corrupted")
	}
	if cstats.ChecksumDrops == 0 {
		t.Fatal("client counted no checksum drops despite corrupted segments")
	}
	if cstats.ChecksumDrops > corrupt.Corrupted() {
		t.Fatalf("client dropped %d segments but only %d were corrupted",
			cstats.ChecksumDrops, corrupt.Corrupted())
	}
	if sstats.Retransmits == 0 {
		t.Fatal("corruption losses were never retransmitted")
	}
	pools := network.Pools()
	if n := pools.OutstandingPackets(); n != 0 {
		t.Errorf("packet pool unbalanced: %d outstanding", n)
	}
	if n := pools.OutstandingDatagrams(); n != 0 {
		t.Errorf("datagram pool unbalanced: %d outstanding", n)
	}
	if n := cs.Segments().Outstanding(); n != 0 {
		t.Errorf("client segment pool unbalanced: %d outstanding", n)
	}
	if n := ss.Segments().Outstanding(); n != 0 {
		t.Errorf("server segment pool unbalanced: %d outstanding", n)
	}
}

// TestGoodputExcludesDuplicateBytes is the satellite-3 contract: fairness
// tables must be able to report goodput. BytesReceived counts each stream
// byte exactly once no matter how many wire copies carried it, and
// DupBytesRcvd holds the surplus.
func TestGoodputExcludesDuplicateBytes(t *testing.T) {
	dup := netem.NewDuplicateBox(0.3, 0, sim.NewRand(55))
	loop, _, cs, ss := impairNet(t, 20*sim.Millisecond, dup)
	const size = 512 << 10
	got, cstats, _ := download(t, loop, cs, ss, size)
	if got != size {
		t.Fatalf("received %d bytes, want %d", got, size)
	}
	if cstats.BytesReceived != size {
		t.Fatalf("BytesReceived = %d, want exactly %d (goodput, not wire bytes)",
			cstats.BytesReceived, size)
	}
	if cstats.DupBytesRcvd == 0 {
		t.Fatal("DupBytesRcvd = 0 under 30%% duplication")
	}
}
