package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"

	"repro/internal/browser"
	"repro/internal/engine"
	"repro/internal/netem"
	"repro/internal/tcpsim"
)

// digest hashes virtual-clock results (FNV-1a, 64 bit; integers as
// little-endian bytes). Every field that goes in is a pure function of the
// workload's seed, so two runs of the same op, traced or not, on any host,
// give the same digest.
type digest struct {
	h   hash.Hash64
	buf []byte
}

func newDigest() digest { return digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf[:0], v)
	d.h.Write(d.buf)
}

func (d *digest) int(v int)      { d.u64(uint64(v)) }
func (d *digest) i64(v int64)    { d.u64(uint64(v)) }
func (d *digest) f64(v float64)  { d.u64(math.Float64bits(v)) }
func (d *digest) str(s string)   { d.int(len(s)); d.bytes([]byte(s)) }
func (d *digest) bytes(b []byte) { d.h.Write(b) }
func (d *digest) sum() uint64    { return d.h.Sum64() }

// digestAll folds a sequence of per-op digests, in op order, into the
// workload digest.
func digestAll(ops []uint64) uint64 {
	d := newDigest()
	d.int(len(ops))
	for _, v := range ops {
		d.u64(v)
	}
	return d.sum()
}

func digestLoad(d *digest, r browser.Result) {
	d.i64(int64(r.Start))
	d.i64(int64(r.PLT))
	d.int(r.Resources)
	d.int(r.Errors)
	d.int(r.Failed)
	d.int(r.Bytes)
	d.int(len(r.Timings))
	for _, t := range r.Timings {
		d.str(t.URL)
		d.i64(int64(t.Discovered))
		d.i64(int64(t.Start))
		d.i64(int64(t.Done))
		d.int(t.Status)
		d.int(t.Bytes)
	}
}

func digestContention(d *digest, r engine.ContentionResult) {
	d.int(r.Flows)
	d.int(r.FlowsDone)
	d.int(r.Errors)
	d.i64(int64(r.Duration))
	d.u64(r.Events)
	d.u64(r.TailDrops)
	d.u64(r.AQMDrops)
	d.u64(r.AQMMarks)
	d.int(r.MaxQueue)
	d.int(r.PeakConns)
	for _, c := range r.Classes {
		d.int(c.Flows)
		d.int(c.Transfers)
		d.u64(c.Bytes)
		d.f64(c.XferP50Ms)
		d.f64(c.XferP95Ms)
		d.u64(c.QBytes)
		d.f64(c.QMeanMs)
		d.f64(c.QP50Ms)
		d.f64(c.QP95Ms)
		d.u64(c.QDrops)
		d.u64(c.QMarks)
	}
}

func digestConnStats(d *digest, s tcpsim.Stats) {
	for _, v := range []uint64{s.BytesSent, s.BytesReceived, s.SegmentsSent, s.SegmentsRcvd,
		s.Retransmits, s.FastRetransmits, s.Timeouts, s.ECNMarksSeen, s.ECNReductions,
		s.DupBytesRcvd, s.ChecksumDrops} {
		d.u64(v)
	}
	d.i64(int64(s.SRTT))
}

func digestTransitions(d *digest, ts []netem.Transition) {
	d.int(len(ts))
	for _, t := range ts {
		d.i64(int64(t.At))
		d.str(t.Label)
		d.int(t.Moved)
		d.int(t.Dropped)
	}
}
