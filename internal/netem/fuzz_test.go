package netem

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// FuzzQdiscSpec checks the QdiscSpec label against behaviour. Build must
// never panic for the five kinds, and two specs whose String labels are
// equal must behave identically on one fixed enqueue/dequeue schedule: the
// same delivery order, the same CE marks, the same flushed packets and the
// same QueueStats counters. The label is an experiment's cell coordinate
// and seeds the cell, so two specs that share it must be one discipline.
//
// The input decodes to a spec a and a set of replacement values; mask
// picks which of b's fields take a replacement instead of a's value. A
// pair whose labels differ proves nothing and is skipped. Behaviour is
// compared, not the structs: a negative bound and a zero bound are stored
// differently but both mean "none".
//
// CI runs it for a bounded time:
//
//	go test -run '^$' -fuzz FuzzQdiscSpec -fuzztime 10s ./internal/netem/
func FuzzQdiscSpec(f *testing.F) {
	le := func(vs ...int16) []byte {
		b := make([]byte, 0, 2*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint16(b, uint16(v))
		}
		return b
	}
	// kind is a's kind index plus 6 times the replacement kind's; data is
	// a's Packets, Bytes, Target, Interval, TUpdate, Flows and Quantum,
	// then the seven replacements. Each seed is a pair with equal labels.
	f.Add(uint8(3), uint16(0), false, false, []byte{})
	f.Add(uint8(0+6*1), uint16(1), false, false, le(32))
	f.Add(uint8(3), uint16(0b11000), true, true, le(48, 0, 0, 0, 0, 0, 0, 0, 0, -100, -5))
	f.Add(uint8(4), uint16(0b111000), true, true, le(20, 9000, 0, 0, 0, 0, 0, 0, 0, -300, 100, -1))
	f.Add(uint8(5), uint16(0b11000000), true, true, le(40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -8, -3))
	f.Add(uint8(1), uint16(0b100111000), true, false, le(16, 0, 0, 0, 0, 0, 0, 0, 0, 100, 2000, 300))
	f.Fuzz(func(t *testing.T, kind uint8, mask uint16, ecnA, ecnB bool, data []byte) {
		kinds := [...]string{"", QdiscDropTail, QdiscInfinite, QdiscCoDel, QdiscPIE, QdiscFQCoDel}
		next := func() int16 {
			if len(data) < 2 {
				return 0
			}
			v := int16(binary.LittleEndian.Uint16(data))
			data = data[2:]
			return v
		}
		// Times step in 50 µs, so a positive PIE update period is at least
		// that long; Flows stays within ±1,100 buckets; Quantum steps in
		// 64 bytes.
		spec := func(kind string, ecn bool) QdiscSpec {
			return QdiscSpec{
				Kind:     kind,
				Packets:  int(next()) % 200,
				Bytes:    int(next()),
				Target:   sim.Time(next()) * 50 * sim.Microsecond,
				Interval: sim.Time(next()) * 50 * sim.Microsecond,
				TUpdate:  sim.Time(next()) * 50 * sim.Microsecond,
				Flows:    int(next()) % 1100,
				Quantum:  int(next()) % 64 * 64,
				ECN:      ecn,
			}
		}
		a := spec(kinds[int(kind)%len(kinds)], ecnA)
		alt := spec(kinds[int(kind)/len(kinds)%len(kinds)], ecnB)
		b := a
		pick := func(bit int) bool { return mask&(1<<bit) != 0 }
		if pick(0) {
			b.Kind = alt.Kind
		}
		if pick(1) {
			b.Packets = alt.Packets
		}
		if pick(2) {
			b.Bytes = alt.Bytes
		}
		if pick(3) {
			b.Target = alt.Target
		}
		if pick(4) {
			b.Interval = alt.Interval
		}
		if pick(5) {
			b.TUpdate = alt.TUpdate
		}
		if pick(6) {
			b.Flows = alt.Flows
		}
		if pick(7) {
			b.Quantum = alt.Quantum
		}
		if pick(8) {
			b.ECN = alt.ECN
		}
		gotA := runSpecSchedule(a.Build())
		if a.String() != b.String() {
			return
		}
		if gotB := runSpecSchedule(b.Build()); gotA != gotB {
			t.Fatalf("specs %#v and %#v share the label %q but behave differently:\n%s\nvs\n%s",
				a, b, a.String(), gotA, gotB)
		}
	})
}

// runSpecSchedule drives q through one fixed schedule and renders what it
// did: 240 packets from five flows (odd flows ECT, sizes 200 to MTU bytes)
// arrive two per millisecond while one packet per millisecond is dequeued,
// a flush empties the queue at 90 ms, and the queue then drains. The
// rendering lists every delivery with its CE mark and every flushed packet,
// then the queue's counters.
func runSpecSchedule(q Qdisc) string {
	var b strings.Builder
	const n = 240
	seq := 0
	for tick := sim.Time(0); seq < n || q.Len() > 0; tick += sim.Millisecond {
		for i := 0; i < 2 && seq < n; i++ {
			flow := uint64(seq % 5)
			q.Enqueue(&Packet{
				Size: 200 + seq*577%(MTU-199), Flow: flow, Seq: int64(seq), ECT: flow%2 == 1,
			}, tick)
			seq++
		}
		if pkt := q.Dequeue(tick); pkt != nil {
			fmt.Fprintf(&b, "%v deq f%d.%d ce=%t\n", tick, pkt.Flow, pkt.Seq, pkt.CE)
		}
		if tick == 90*sim.Millisecond {
			q.Flush(func(pkt *Packet) { fmt.Fprintf(&b, "%v flush f%d.%d\n", tick, pkt.Flow, pkt.Seq) })
		}
	}
	qs := q.QueueStats()
	fmt.Fprintf(&b, "enq=%d deq=%d tail=%d aqm=%d marks=%d flushed=%d maxlen=%d maxbytes=%d sojourn=%d/%v/%v",
		qs.Enqueued, qs.Dequeued, qs.TailDrops, qs.AQMDrops, qs.AQMMarks, qs.Flushed,
		qs.MaxLen, qs.MaxBytes, qs.SojournCount, qs.SojournSum, qs.SojournMax)
	return b.String()
}
