package main

import (
	"repro/internal/netem"
	"repro/internal/shells"
	"repro/internal/sim"
)

// tracedShell wraps a real shell for the traced run. It returns the real
// shell's boxes wrapped in tracedBox, so every Send/SendBatch into a shell
// box and every call of the box's sink (the link-end crossing into the next
// namespace) becomes a span. The wrapper schedules no events and draws no
// random numbers, so the simulation it wraps is unchanged; the run checks
// that by comparing result digests with the untraced run.
type tracedShell struct {
	inner shells.Shell
	lane  *lane
	send  [2]int32
	sink  [2]int32
	// boxes are the wrapped boxes of the most recent Boxes call, up first.
	boxes [2]*tracedBox
}

func newTracedShell(inner shells.Shell, tr *tracer) *tracedShell {
	s := &tracedShell{inner: inner, lane: tr.lanes[0]}
	for d, dir := range []string{"up", "down"} {
		s.send[d] = tr.name("netem.Send/" + inner.Name() + "/" + dir)
		s.sink[d] = tr.name("nsim.sink/" + inner.Name() + "/" + dir)
	}
	return s
}

// Name implements shells.Shell.
func (s *tracedShell) Name() string { return s.inner.Name() }

// Boxes implements shells.Shell.
func (s *tracedShell) Boxes(loop *sim.Loop) (netem.Box, netem.Box) {
	up, down := s.inner.Boxes(loop)
	for d, b := range []netem.Box{up, down} {
		s.boxes[d] = &tracedBox{inner: b, lane: s.lane, send: s.send[d], sink: s.sink[d]}
	}
	return s.boxes[0], s.boxes[1]
}

// tracedStack is a shell stack wrapped for the traced run: the wrappers,
// whose counters the ops read, and the same values as the []shells.Shell
// that shells.Build and experiments.LoadSpec take.
type tracedStack struct {
	wrapped []*tracedShell
	shells  []shells.Shell
}

// wrapStack wraps every shell of a stack, recording on lane 0.
func wrapStack(list []shells.Shell, tr *tracer) tracedStack {
	var st tracedStack
	for _, s := range list {
		t := newTracedShell(s, tr)
		st.wrapped = append(st.wrapped, t)
		st.shells = append(st.shells, t)
	}
	return st
}

// tracedBox wraps one shell box. Besides the spans it counts the packets
// and calls that cross it.
type tracedBox struct {
	inner      netem.Box
	lane       *lane
	send, sink int32
	// pkts counts packets sent in; calls counts Send plus SendBatch calls;
	// sinkCalls counts calls of the downstream sink (per packet or per
	// train).
	pkts, calls, sinkCalls uint64
}

func (b *tracedBox) Send(pkt *netem.Packet) {
	b.pkts++
	b.calls++
	b.lane.begin(b.send)
	b.inner.Send(pkt)
	b.lane.end()
}

func (b *tracedBox) SendBatch(pkts []*netem.Packet) {
	b.pkts += uint64(len(pkts))
	b.calls++
	b.lane.begin(b.send)
	b.inner.SendBatch(pkts)
	b.lane.end()
}

func (b *tracedBox) SetSink(sink netem.Sink) {
	if sink == nil {
		b.inner.SetSink(nil)
		return
	}
	b.inner.SetSink(func(pkt *netem.Packet) {
		b.sinkCalls++
		b.lane.begin(b.sink)
		sink(pkt)
		b.lane.end()
	})
}

func (b *tracedBox) SetBatchSink(sink netem.BatchSink) {
	if sink == nil {
		b.inner.SetBatchSink(nil)
		return
	}
	b.inner.SetBatchSink(func(pkts []*netem.Packet) {
		b.sinkCalls++
		b.lane.begin(b.sink)
		sink(pkts)
		b.lane.end()
	})
}

func (b *tracedBox) Stats() netem.BoxStats { return b.inner.Stats() }

// impairedCount reads how many packets a shell box impaired: dropped by a
// loss box, displaced, duplicated or corrupted. Pipelines are summed over
// their boxes.
func impairedCount(b netem.Box) uint64 {
	switch x := b.(type) {
	case *tracedBox:
		return impairedCount(x.inner)
	case *netem.Pipeline:
		var n uint64
		for _, inner := range x.Boxes() {
			n += impairedCount(inner)
		}
		return n
	case *netem.LossBox:
		return x.Stats().Dropped
	case *netem.ReorderBox:
		return x.Displaced()
	case *netem.DuplicateBox:
		return x.Duplicated()
	case *netem.CorruptBox:
		return x.Corrupted()
	}
	return 0
}
