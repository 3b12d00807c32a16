// Package sim provides a deterministic discrete-event simulator that the
// rest of the toolkit runs on top of.
//
// Mahimahi's shells run in real time on a Linux host; this reproduction runs
// the same queueing algorithms on a virtual clock so that experiments are
// deterministic, isolated from host load, and orders of magnitude faster
// than real time. Every packet release, TCP timer, and browser event is an
// event scheduled on a Loop.
//
// Determinism guarantees: events fire in (time, sequence) order, where
// sequence is the order of scheduling. Two runs of the same workload with
// the same seeds produce identical traces.
//
// The loop is allocation-free in steady state: events live in a slab of
// value-typed slots recycled through a free list, so scheduling costs no
// heap allocation and firing order never depends on memory layout.
//
// Future events are ordered by an inlined indexed binary min-heap of slot
// indices. Events scheduled for the current instant skip the heap through
// a FIFO now-queue; Step merge-compares the two heads, so firing order is
// exactly (time, sequence).
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp, measured in nanoseconds since the start of
// the simulation. It intentionally mirrors time.Duration arithmetic.
type Time int64

// Common virtual-time unit constants.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a virtual timestamp to a time.Duration from t=0.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Milliseconds reports the timestamp in (possibly fractional) milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports the timestamp in (possibly fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the virtual time as a duration from simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Handler is a callback fired when an event's time arrives.
type Handler func(now Time)

// ArgHandler is a callback fired with an opaque argument supplied at
// scheduling time. ScheduleArg plus a handler bound once at setup replaces
// the per-event closure (which allocates) on hot paths like per-packet
// delivery.
type ArgHandler func(now Time, arg any)

// eventSlot is the in-slab representation of a scheduled event. Slots are
// value-typed, recycled through the loop's free list, and addressed by
// index, so scheduling allocates nothing once the slab has grown to the
// workload's high-water mark. gen increments on every recycle, which lets
// outstanding Timer handles detect that their slot has moved on.
type eventSlot struct {
	at  Time
	seq uint64
	fn  Handler
	afn ArgHandler
	arg any
	gen uint32
	// heapIdx is the slot's heap position; -1 when the slot is in the
	// now-queue or free.
	heapIdx int32
	// canceled is set by Timer.Stop; Step discards the slot unfired.
	canceled bool
}

// Timer is a rearmable event bound to one handler, and the loop's only
// cancelable event. Unlike Schedule, whose per-call handler is typically a
// freshly allocated closure, a Timer captures its handler once at creation
// and then rearms allocation-free — the pattern TCP retransmission timers
// need, where the timer is reset on every ACK. The zero Timer is not
// usable; create one with Loop.NewTimer.
type Timer struct {
	loop  *Loop
	fn    Handler
	slot  int32
	gen   uint32
	armed bool
}

// NewTimer returns an unarmed timer that will run fn each time it fires.
func (l *Loop) NewTimer(fn Handler) Timer {
	if fn == nil {
		panic("sim: NewTimer with nil handler")
	}
	return Timer{loop: l, fn: fn, slot: -1}
}

// Reset (re)arms the timer to fire after delay, canceling any pending
// firing. A negative delay is clamped to zero. Reset performs no heap
// allocation: a still-pending firing is rescheduled in place — the slot
// gets the new time and a fresh sequence number (so ordering matches a
// cancel-plus-reschedule exactly) and sifts to its new heap position —
// and otherwise the timer draws a recycled slot with its bound handler.
func (t *Timer) Reset(delay Time) {
	if delay < 0 {
		delay = 0
	}
	l := t.loop
	if t.armed {
		s := &l.slots[t.slot]
		if s.gen == t.gen && !s.canceled && s.heapIdx >= 0 {
			l.counters.Scheduled++ // a rearm is a cancel-plus-reschedule
			s.at = l.now + delay
			s.seq = l.nextSeq
			l.nextSeq++
			// Restore heap order from the slot's current position: one of
			// the two sifts moves it, the other is a no-op.
			l.siftDown(int(s.heapIdx))
			l.siftUp(int(s.heapIdx))
			return
		}
	}
	t.Stop()
	t.slot, t.gen = l.scheduleSlot(l.now+delay, t.fn, nil, nil)
	t.armed = true
}

// Stop cancels the pending firing, if any. Stopping an unarmed or
// already-fired timer is a no-op.
func (t *Timer) Stop() {
	if !t.armed {
		return
	}
	t.armed = false
	s := &t.loop.slots[t.slot]
	if s.gen == t.gen {
		s.canceled = true
	}
}

// Loop is the discrete-event loop. The zero value is not usable; create one
// with NewLoop.
type Loop struct {
	now   Time
	slots []eventSlot
	heap  []int32 // slot indices ordered by (at, seq)
	free  []int32 // recycled slot indices
	// nowq is the fast path for events scheduled at exactly the current
	// time — the zero-delay deliveries that dominate packet-forwarding
	// workloads. Entries are in seq order by construction (appended in
	// scheduling order, and seq increases), so the queue is a FIFO ring
	// consumed from nowHead; it is provably empty whenever the clock
	// advances, because its entries sort before any later-timed heap
	// event. Step merge-compares the ring head with the heap's minimum, so
	// firing order remains exactly (at, seq).
	nowq     []int32
	nowHead  int
	nextSeq  uint64
	running  bool
	fired    uint64
	counters SchedCounters
	flushed  SchedCounters // portion already pushed to the global stats sink
}

// NewLoop returns an empty event loop positioned at virtual time zero.
func NewLoop() *Loop { return &Loop{} }

// Reset returns the loop to its initial state — virtual time zero, empty
// queue — while keeping every allocated capacity (slot slab, heap,
// now-queue), so a driver running many sequential simulations can reuse
// one warmed loop instead of regrowing these structures per run (see
// experiments.Scratch). Any events still pending are discarded.
// Timers armed before the reset are disarmed: slot generations advance,
// which makes their stale handles inert.
func (l *Loop) Reset() {
	if l.running {
		panic("sim: Reset while running")
	}
	for i := range l.slots {
		s := &l.slots[i]
		s.fn, s.afn, s.arg = nil, nil, nil
		s.canceled = false
		s.heapIdx = -1
		s.gen++
	}
	l.free = l.free[:0]
	for i := len(l.slots) - 1; i >= 0; i-- {
		l.free = append(l.free, int32(i))
	}
	l.heap = l.heap[:0]
	l.nowq = l.nowq[:0]
	l.nowHead = 0
	l.now = 0
	l.nextSeq = 0
	// counters and fired accumulate across resets; the stats sink flushes
	// deltas, so nothing is double-counted.
}

// Now reports the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Pending reports the number of events currently queued (including stopped
// timer firings that have not yet been discarded).
func (l *Loop) Pending() int { return len(l.heap) + len(l.nowq) - l.nowHead }

// SeqMark returns an opaque marker that changes whenever a new event is
// scheduled. Batching layers (netem's packet trains) use it to detect
// whether anything else entered the event queue between two scheduling
// decisions — the condition under which same-instant deliveries are
// provably adjacent in firing order and may share one event.
func (l *Loop) SeqMark() uint64 { return l.nextSeq }

// Fired reports the total number of events that have executed.
func (l *Loop) Fired() uint64 { return l.fired }

// Schedule queues fn to run after delay. A negative delay is treated as
// zero: the event runs at the current time, after events already queued for
// that time.
func (l *Loop) Schedule(delay Time, fn Handler) {
	if delay < 0 {
		delay = 0
	}
	l.ScheduleAt(l.now+delay, fn)
}

// ScheduleAt queues fn to run at the absolute virtual time at. Times in the
// past are clamped to now.
func (l *Loop) ScheduleAt(at Time, fn Handler) {
	if fn == nil {
		panic("sim: Schedule with nil handler")
	}
	l.scheduleSlot(at, fn, nil, nil)
}

// ScheduleArg queues fn to run after delay, passing arg when it fires. It
// is the allocation-free alternative to Schedule for hot paths: the handler
// is bound once at setup and the per-event state travels in arg (interface
// conversion of a pointer allocates nothing).
func (l *Loop) ScheduleArg(delay Time, fn ArgHandler, arg any) {
	if fn == nil {
		panic("sim: Schedule with nil handler")
	}
	if delay < 0 {
		delay = 0
	}
	l.scheduleSlot(l.now+delay, nil, fn, arg)
}

// scheduleSlot places a callback in the slab and heap, returning its slot
// index and generation. This is the single scheduling primitive every
// public method funnels through; it performs no allocation once the slab
// and heap have reached the workload's high-water mark.
func (l *Loop) scheduleSlot(at Time, fn Handler, afn ArgHandler, arg any) (int32, uint32) {
	if at < l.now {
		at = l.now
	}
	var idx int32
	if n := len(l.free); n > 0 {
		idx = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		l.slots = append(l.slots, eventSlot{})
		idx = int32(len(l.slots) - 1)
	}
	s := &l.slots[idx]
	s.at = at
	s.seq = l.nextSeq
	s.fn = fn
	s.afn = afn
	s.arg = arg
	s.canceled = false
	l.nextSeq++
	l.counters.Scheduled++
	if at == l.now {
		s.heapIdx = -1
		l.nowq = append(l.nowq, idx)
		l.counters.NowFast++
	} else {
		s.heapIdx = int32(len(l.heap))
		l.heap = append(l.heap, idx)
		l.siftUp(len(l.heap) - 1)
	}
	if p := l.Pending(); p > l.counters.MaxPending {
		l.counters.MaxPending = p
	}
	return idx, s.gen
}

// less orders slots by (at, seq) — the documented firing order.
func (l *Loop) less(a, b int32) bool {
	sa, sb := &l.slots[a], &l.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (l *Loop) siftUp(i int) {
	h := l.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !l.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		l.slots[h[i]].heapIdx = int32(i)
		i = parent
	}
	l.slots[h[i]].heapIdx = int32(i)
}

func (l *Loop) siftDown(i int) {
	h := l.heap
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && l.less(h[right], h[left]) {
			child = right
		}
		if !l.less(h[child], h[i]) {
			break
		}
		h[i], h[child] = h[child], h[i]
		l.slots[h[i]].heapIdx = int32(i)
		i = child
	}
	l.slots[h[i]].heapIdx = int32(i)
}

// popRoot removes and returns the heap's minimum slot index.
func (l *Loop) popRoot() int32 {
	root := l.heap[0]
	l.slots[root].heapIdx = -1
	n := len(l.heap) - 1
	l.heap[0] = l.heap[n]
	l.heap = l.heap[:n]
	if n > 0 {
		l.slots[l.heap[0]].heapIdx = 0
		if n > 1 {
			l.siftDown(0)
		}
	}
	return root
}

// popNow consumes the now-queue's head.
func (l *Loop) popNow() int32 {
	idx := l.nowq[l.nowHead]
	l.nowHead++
	if l.nowHead == len(l.nowq) {
		l.nowq = l.nowq[:0]
		l.nowHead = 0
	}
	return idx
}

// peekNext returns the slot index of the globally earliest event without
// removing it; ok is false when no events remain.
func (l *Loop) peekNext() (int32, bool) {
	hasNow := l.nowHead < len(l.nowq)
	hasFuture := len(l.heap) > 0
	switch {
	case !hasNow && !hasFuture:
		return 0, false
	case hasNow && !hasFuture:
		return l.nowq[l.nowHead], true
	case hasFuture && !hasNow:
		return l.heap[0], true
	}
	if min := l.heap[0]; l.less(min, l.nowq[l.nowHead]) {
		return min, true
	}
	return l.nowq[l.nowHead], true
}

// popNext removes and returns the globally earliest event's slot index.
func (l *Loop) popNext() (int32, bool) {
	hasNow := l.nowHead < len(l.nowq)
	hasFuture := len(l.heap) > 0
	switch {
	case !hasNow && !hasFuture:
		return 0, false
	case hasNow && !hasFuture:
		return l.popNow(), true
	case hasFuture && !hasNow:
		return l.popRoot(), true
	}
	if l.less(l.heap[0], l.nowq[l.nowHead]) {
		return l.popRoot(), true
	}
	return l.popNow(), true
}

// freeSlot recycles a slot: handler references are dropped so the GC can
// reclaim them, and the generation advances so stale handles become inert.
func (l *Loop) freeSlot(idx int32) {
	s := &l.slots[idx]
	s.fn = nil
	s.afn = nil
	s.arg = nil
	s.canceled = false
	s.heapIdx = -1
	s.gen++
	l.free = append(l.free, idx)
}

// Step fires the single earliest pending event that was not stopped,
// advancing the clock to its timestamp. It reports false when no events
// remain.
func (l *Loop) Step() bool {
	for {
		idx, ok := l.popNext()
		if !ok {
			return false
		}
		s := &l.slots[idx]
		if s.canceled {
			l.freeSlot(idx)
			continue
		}
		if s.at < l.now {
			panic(fmt.Sprintf("sim: event scheduled at %v fired at %v (clock went backwards)", s.at, l.now))
		}
		l.now = s.at
		l.fired++
		// Copy the callback out and recycle the slot before invoking, so
		// handlers that schedule new events can reuse it immediately.
		fn, afn, arg := s.fn, s.afn, s.arg
		l.freeSlot(idx)
		if afn != nil {
			afn(l.now, arg)
		} else {
			fn(l.now)
		}
		return true
	}
}

// Run fires events until the queue is empty, then returns the final virtual
// time.
func (l *Loop) Run() Time {
	if l.running {
		panic("sim: Run called reentrantly")
	}
	l.running = true
	defer func() { l.running = false }()
	for l.Step() {
	}
	l.flushStats()
	return l.now
}

// RunUntil fires events with timestamps <= deadline, then advances the clock
// to the deadline. Events scheduled past the deadline remain queued.
func (l *Loop) RunUntil(deadline Time) {
	if l.running {
		panic("sim: RunUntil called reentrantly")
	}
	l.running = true
	defer func() { l.running = false }()
	for {
		idx, ok := l.peekNext()
		if !ok {
			break
		}
		s := &l.slots[idx]
		if s.canceled {
			l.popNext()
			l.freeSlot(idx)
			continue
		}
		if s.at > deadline {
			break
		}
		l.Step()
	}
	if l.now < deadline {
		l.now = deadline
	}
	l.flushStats()
}

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)
