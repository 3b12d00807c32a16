package tcpsim

import (
	"repro/internal/sim"

	"testing"
)

// stuffOOO fills a connection's reassembly buffer with pooled one-byte
// segments at the given sequence numbers (inserted in the order given, which
// is irrelevant: the buffer keeps sequence order).
func stuffOOO(c *Conn, seqs []uint64) map[uint64]*Segment {
	bySeq := make(map[uint64]*Segment, len(seqs))
	for _, seq := range seqs {
		sg := c.stack.newSegment()
		sg.Flags = FlagACK
		sg.Seq = seq
		sg.Data = []byte{0}
		c.bufferOOO(sg)
		bySeq[seq] = sg
	}
	return bySeq
}

// oooAt looks up the buffered segment at seq.
func oooAt(c *Conn, seq uint64) (*Segment, bool) {
	for _, sg := range c.ooo {
		if sg.Seq == seq {
			return sg, true
		}
	}
	return nil, false
}

// freeTail returns the n segments most recently parked in the pool, oldest
// first. It reads them by LIFO Get and parks them again in the same order,
// so the free list and its ledger are left as they were.
func freeTail(p *SegmentPool, n int) []*Segment {
	tail := make([]*Segment, n)
	for i := n - 1; i >= 0; i-- {
		tail[i] = p.free.Get()
	}
	for _, sg := range tail {
		p.free.Put(sg)
	}
	return tail
}

// TestOOOReleaseOrderDeterministic is the regression test for the
// map-iteration-order bug the sharded engine exposed: releaseStaleOOO and
// releaseAllOOO used to release reassembly-buffer segments while ranging
// over the ooo map, so the LIFO segment pool's free-list order — and with
// it the identity of every segment allocated later in the run — depended on
// Go's per-range map iteration randomization. Both paths must now release
// in ascending sequence order regardless of insertion order or iteration
// luck; the repeated iterations give map randomization many chances to
// expose a regression.
func TestOOOReleaseOrderDeterministic(t *testing.T) {
	seqs := []uint64{900, 100, 500, 300, 700, 200, 800, 400, 600, 1000}
	sorted := []uint64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}

	for iter := 0; iter < 40; iter++ {
		_, cs, _ := testNet(t, 10*sim.Millisecond, 0, 0)
		conn, err := cs.Dial(clientAddr, serverAP)
		if err != nil {
			t.Fatal(err)
		}

		bySeq := stuffOOO(conn, seqs)
		before := cs.segs.Outstanding()
		conn.rcvNxt = 2000 // everything buffered is stale
		conn.releaseStaleOOO()
		if len(conn.ooo) != 0 {
			t.Fatalf("iter %d: releaseStaleOOO left %d segments buffered", iter, len(conn.ooo))
		}
		for i, sg := range freeTail(cs.segs, len(sorted)) {
			if sg != bySeq[sorted[i]] {
				t.Fatalf("iter %d: releaseStaleOOO recycled out of order at %d", iter, i)
			}
		}
		if got := before - cs.segs.Outstanding(); got != int64(len(seqs)) {
			t.Fatalf("iter %d: %d segments came back to the pool, want %d", iter, got, len(seqs))
		}

		bySeq = stuffOOO(conn, seqs)
		conn.releaseAllOOO()
		if len(conn.ooo) != 0 {
			t.Fatalf("iter %d: releaseAllOOO left %d segments buffered", iter, len(conn.ooo))
		}
		for i, sg := range freeTail(cs.segs, len(sorted)) {
			if sg != bySeq[sorted[i]] {
				t.Fatalf("iter %d: releaseAllOOO recycled out of order at %d", iter, i)
			}
		}
	}
}

// TestReleaseStaleOOOKeepsLiveSegments checks the stale sweep's boundary:
// only segments entirely below the cumulative receive point are released.
func TestReleaseStaleOOOKeepsLiveSegments(t *testing.T) {
	_, cs, _ := testNet(t, 10*sim.Millisecond, 0, 0)
	conn, err := cs.Dial(clientAddr, serverAP)
	if err != nil {
		t.Fatal(err)
	}
	stuffOOO(conn, []uint64{10, 20, 30})
	conn.rcvNxt = 21 // 10 and 20 (one byte each) are stale; 30 is live
	conn.releaseStaleOOO()
	if len(conn.ooo) != 1 {
		t.Fatalf("ooo holds %d segments, want 1", len(conn.ooo))
	}
	if sg, ok := oooAt(conn, 30); !ok || sg.Seq != 30 {
		t.Fatal("live segment at seq 30 was swept")
	}
	conn.releaseAllOOO() // leave the pool balanced
}
