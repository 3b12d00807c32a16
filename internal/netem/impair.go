package netem

import (
	"fmt"

	"repro/internal/sim"
)

// This file completes pumba's netem impairment vocabulary — reordering,
// duplication, corruption — as composable boxes on the same deterministic
// draw-count contract as the loss models in gemodel.go: each box consumes a
// fixed number of draws per packet for given parameters (exactly one when
// the impairment probability is positive, zero when it is 0), from a
// dedicated sim.Rand stream. A disabled box is a pure passthrough — zero
// draws, trains undivided — so artifacts recorded before these boxes
// existed stay byte-identical with the boxes present but disabled, and a
// scripted mid-run parameter step (ScenarioScript) leaves the stream
// aligned at one draw per packet judged so far.

// corrDraw is tc-netem's correlated uniform: each packet's decision value
// is an exponentially-weighted blend of the previous value and a fresh
// draw, so impairment events cluster (corr > 0 makes a reordered packet
// more likely to be followed by another). Exactly one draw per call.
type corrDraw struct {
	prev float64
}

// hit consumes one draw and reports whether the correlated value falls
// below prob.
func (c *corrDraw) hit(rng *sim.Rand, prob, corr float64) bool {
	v := c.prev*corr + rng.Float64()*(1-corr)
	c.prev = v
	return v < prob
}

// checkProbCorr validates an impairment (probability, correlation) pair.
func checkProbCorr(kind string, prob, corr float64) {
	if prob < 0 || prob > 1 {
		panic(fmt.Sprintf("netem: %s probability %v outside [0,1]", kind, prob))
	}
	if corr < 0 || corr > 1 {
		panic(fmt.Sprintf("netem: %s correlation %v outside [0,1]", kind, corr))
	}
}

// ReorderBox displaces selected packets in time: a displaced packet is held
// on the virtual clock for a fixed interval while later packets overtake
// it, then released — tc-netem's `reorder` expressed in Mahimahi's
// release-time vocabulary. Every gap-th packet is a displacement candidate
// (gap 1: every packet), selected with correlated probability prob/corr.
//
// Draw contract: one draw per packet while prob > 0 (candidates and
// non-candidates alike, so the stream position is packet count, not a
// function of gap phase); zero draws and pure passthrough when prob == 0.
//
// Displaced packets are parked in a DelayBox of delay hold, so those held
// to the same release instant share one train; in-order packets pass
// through undelayed with their train intact. This is what drives tcpsim's
// dupack machinery: an overtaken data segment yields a run of duplicate
// ACKs at the receiver, and a displacement longer than three later
// segments triggers fast retransmit with the original still in flight.
type ReorderBox struct {
	port
	loop      *sim.Loop
	prob      float64
	corr      float64
	gap       int
	rng       *sim.Rand
	cd        corrDraw
	count     uint64 // packets seen while enabled, for gap phase
	displaced uint64
	park      *DelayBox // holds displaced packets; delivers through this box
}

// NewReorderBox returns a reordering box. prob and corr are the correlated
// selection probability, gap the candidate stride (values < 1 mean every
// packet), hold how long a displaced packet is parked on the virtual clock.
func NewReorderBox(loop *sim.Loop, prob, corr float64, gap int, hold sim.Time, rng *sim.Rand) *ReorderBox {
	checkProbCorr("reorder", prob, corr)
	if hold < 0 {
		panic(fmt.Sprintf("netem: negative reorder hold %v", hold))
	}
	if gap < 1 {
		gap = 1
	}
	r := &ReorderBox{loop: loop, prob: prob, corr: corr, gap: gap, rng: rng, park: NewDelayBox(loop, hold)}
	r.park.SetBatchSink(r.emit)
	return r
}

// SetReorder updates the selection parameters from the next packet on —
// the scripted reorder step. The draw stream and gap phase continue where
// they left off.
func (r *ReorderBox) SetReorder(prob, corr float64) {
	checkProbCorr("reorder", prob, corr)
	r.prob, r.corr = prob, corr
}

// Displaced reports how many packets have been held for late release.
func (r *ReorderBox) Displaced() uint64 { return r.displaced }

// displace decides one packet's fate, consuming exactly one draw while the
// box is enabled, and parks it when it is displaced.
func (r *ReorderBox) displace(pkt *Packet) bool {
	if r.prob == 0 {
		return false
	}
	r.count++
	hit := r.cd.hit(r.rng, r.prob, r.corr)
	if !hit || r.count%uint64(r.gap) != 0 {
		return false
	}
	r.displaced++
	r.park.Send(pkt)
	return true
}

// Send implements Box.
func (r *ReorderBox) Send(pkt *Packet) { r.SendBatch(r.one(pkt)) }

// SendBatch implements Box: draws happen per packet in train order, the
// in-order survivors continue as one train, and displaced packets join
// hold trains.
func (r *ReorderBox) SendBatch(pkts []*Packet) {
	var surv []*Packet
	forked := false
	for i, pkt := range pkts {
		r.stats.arrive(pkt)
		switch {
		case r.displace(pkt):
			if !forked {
				surv, forked = r.fork(pkts, i), true
			}
		case forked:
			surv = append(surv, pkt)
		}
	}
	if !forked {
		r.emit(pkts)
		return
	}
	r.emitScratch(surv)
}

// Stats implements Box: the queue gauges are those of the parked packets.
func (r *ReorderBox) Stats() BoxStats {
	st, held := r.stats, r.park.Stats()
	st.QueueLen, st.QueueBytes, st.MaxQueueLen = held.QueueLen, held.QueueBytes, held.MaxQueueLen
	return st
}

// DuplicateBox clones selected packets, delivering the copy immediately
// after the original (tc-netem `duplicate`). The clone is a first-class
// pooled packet: it comes from the original's pool (the get/put ledger
// counts it) and carries an independently-owned payload (Payload.Clone),
// so either copy can be dropped downstream without corrupting the other's
// refcounts.
//
// Draw contract: one draw per packet while prob > 0; zero draws and pure
// passthrough when prob == 0.
type DuplicateBox struct {
	port
	prob       float64
	corr       float64
	rng        *sim.Rand
	cd         corrDraw
	duplicated uint64
}

// NewDuplicateBox returns a box duplicating packets with correlated
// probability prob/corr.
func NewDuplicateBox(prob, corr float64, rng *sim.Rand) *DuplicateBox {
	checkProbCorr("duplicate", prob, corr)
	return &DuplicateBox{prob: prob, corr: corr, rng: rng}
}

// SetDuplicate updates the parameters from the next packet on — the
// scripted duplication step.
func (d *DuplicateBox) SetDuplicate(prob, corr float64) {
	checkProbCorr("duplicate", prob, corr)
	d.prob, d.corr = prob, corr
}

// Duplicated reports how many clones the box has emitted.
func (d *DuplicateBox) Duplicated() uint64 { return d.duplicated }

// Send implements Box.
func (d *DuplicateBox) Send(pkt *Packet) { d.SendBatch(d.one(pkt)) }

// SendBatch implements Box: draws per packet in train order; clones are
// spliced in right after their originals and the (possibly longer) train
// continues whole. Delivered exceeds Arrived by exactly Duplicated.
func (d *DuplicateBox) SendBatch(pkts []*Packet) {
	var out []*Packet
	forked := false
	for i, pkt := range pkts {
		d.stats.arrive(pkt)
		if forked {
			out = append(out, pkt)
		}
		if d.prob > 0 && d.cd.hit(d.rng, d.prob, d.corr) {
			if !forked {
				out, forked = d.fork(pkts, i+1), true
			}
			d.duplicated++
			out = append(out, pkt.Clone())
		}
	}
	if !forked {
		d.emit(pkts)
		return
	}
	d.emitScratch(out)
}

// CorruptBox flips the Corrupt flag on selected packets (tc-netem
// `corrupt`). The packet still traverses the rest of the pipeline and is
// delivered — corrupted frames occupy link capacity and queue space like
// any other — and the receiving transport discards it as a checksum
// failure (see tcpsim), so the loss is only discovered a retransmit
// timeout or dupack run later.
//
// Draw contract: one draw per packet while prob > 0; zero draws and pure
// passthrough when prob == 0.
type CorruptBox struct {
	port
	prob      float64
	corr      float64
	rng       *sim.Rand
	cd        corrDraw
	corrupted uint64
}

// NewCorruptBox returns a box corrupting packets with correlated
// probability prob/corr.
func NewCorruptBox(prob, corr float64, rng *sim.Rand) *CorruptBox {
	checkProbCorr("corrupt", prob, corr)
	return &CorruptBox{prob: prob, corr: corr, rng: rng}
}

// SetCorrupt updates the parameters from the next packet on — the scripted
// corruption step.
func (c *CorruptBox) SetCorrupt(prob, corr float64) {
	checkProbCorr("corrupt", prob, corr)
	c.prob, c.corr = prob, corr
}

// Corrupted reports how many packets have been flagged.
func (c *CorruptBox) Corrupted() uint64 { return c.corrupted }

// Send implements Box.
func (c *CorruptBox) Send(pkt *Packet) { c.SendBatch(c.one(pkt)) }

// SendBatch implements Box: the train passes through whole; flags are set
// in place, one draw per packet while enabled.
func (c *CorruptBox) SendBatch(pkts []*Packet) {
	for _, pkt := range pkts {
		c.stats.arrive(pkt)
		if c.prob > 0 && c.cd.hit(c.rng, c.prob, c.corr) {
			c.corrupted++
			pkt.Corrupt = true
		}
	}
	c.emit(pkts)
}
