package sim

import (
	"fmt"
	"testing"
)

// TestFiringOrderOracle drives a seeded random mix of every scheduling
// entry point — Schedule, ScheduleAt (past times included), SchedulePriority,
// ScheduleArg, zero-delay now-queue events, schedules made from inside
// handlers, Event.Cancel, Timer.Reset rearms of pending timers and
// Timer.Stop — through RunUntil deadlines, full drains and Loop.Reset reuse.
// Every firing is checked against an independent reference: a flat list of
// the live events' (at, priority, seq) keys, where seq is the order of the
// scheduling calls. The event that fires must be the minimum of that list
// and fire at its own time; canceled, stopped and pre-Reset events must
// never fire, and every other event must fire exactly once.
func TestFiringOrderOracle(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			o := &firingOracle{t: t, l: NewLoop(), rng: NewRand(seed)}
			for round := 0; round < 4; round++ {
				o.round(round%2 == 0)
			}
		})
	}
}

// oracleEvent is the reference record of one scheduling call. Its index in
// firingOracle.events is its seq.
type oracleEvent struct {
	at       Time
	priority int
	live     bool
	ev       Event // zero for timer armings
}

type firingOracle struct {
	t        *testing.T
	l        *Loop
	rng      *Rand
	events   []oracleEvent
	timers   []Timer
	armed    []int // per timer: index of its pending arming, -1 when unarmed
	deadline Time  // no event may fire later than this
	fired    uint64
}

// round schedules a population, advances through several RunUntil
// deadlines with more schedules between them, optionally drains, and then
// resets the loop with whatever is still queued.
func (o *firingOracle) round(drain bool) {
	stale, staleTimers := o.events, o.timers
	o.events = nil
	o.timers = make([]Timer, 4)
	o.armed = make([]int, len(o.timers))
	for i := range o.timers {
		o.timers[i] = o.l.NewTimer(func(now Time) {
			id := o.armed[i]
			if id < 0 {
				o.t.Fatalf("stopped timer %d fired at %v", i, now)
			}
			o.armed[i] = -1
			o.fire(id, now)
		})
		o.armed[i] = -1
	}
	o.deadline = MaxTime
	for i := 0; i < 200; i++ {
		o.act()
	}
	// Handles from before the last Reset are inert: they must not cancel
	// the events now occupying their slots.
	for i := range stale {
		stale[i].ev.Cancel()
	}
	for i := range staleTimers {
		staleTimers[i].Stop()
	}

	for step := 0; step < 6; step++ {
		o.deadline = o.l.Now() + Time(o.rng.Intn(3))*Millisecond
		o.l.RunUntil(o.deadline)
		if o.l.Now() != o.deadline {
			o.t.Fatalf("RunUntil(%v) left the clock at %v", o.deadline, o.l.Now())
		}
		live := 0
		for id, e := range o.events {
			if e.live && e.at <= o.deadline {
				o.t.Fatalf("event %d at %v still pending after RunUntil(%v)", id, e.at, o.deadline)
			}
			if e.live {
				live++
			}
		}
		if o.l.Pending() < live {
			o.t.Fatalf("Pending() = %d with %d live events", o.l.Pending(), live)
		}
		o.deadline = MaxTime
		for i := 0; i < 40; i++ {
			o.act()
		}
	}

	if drain {
		o.l.Run()
		for id, e := range o.events {
			if e.live {
				o.t.Fatalf("event %d at %v never fired", id, e.at)
			}
		}
		if o.l.Pending() != 0 {
			o.t.Fatalf("Pending() = %d after Run", o.l.Pending())
		}
	}
	if o.l.Fired() != o.fired {
		o.t.Fatalf("Fired() = %d, oracle counted %d", o.l.Fired(), o.fired)
	}
	o.l.Reset()
	if o.l.Now() != 0 || o.l.Pending() != 0 {
		o.t.Fatalf("Reset left now=%v pending=%d", o.l.Now(), o.l.Pending())
	}
}

// act performs one random operation on the loop and the reference.
func (o *firingOracle) act() {
	switch k := o.rng.Intn(10); {
	case k < 6:
		o.schedule()
	case k < 8:
		o.cancel()
	default:
		if i := o.rng.Intn(len(o.timers)); o.armed[i] >= 0 {
			o.events[o.armed[i]].live = false
			o.armed[i] = -1
			o.timers[i].Stop()
		}
	}
}

// schedule makes one scheduling call through a random entry point. Delays
// cluster on a few millisecond instants, and include zero (the now-queue)
// and negative values (clamped to now), so ties are common.
func (o *firingOracle) schedule() {
	now := o.l.Now()
	delay := Time(o.rng.Intn(5)-1) * Millisecond
	at := max(now+delay, now)
	id := len(o.events)
	o.events = append(o.events, oracleEvent{at: at, live: true})
	fire := func(now Time) { o.fire(id, now) }
	var ev Event
	switch o.rng.Intn(5) {
	case 0:
		ev = o.l.Schedule(delay, fire)
	case 1:
		ev = o.l.ScheduleAt(now+delay, fire)
	case 2:
		p := o.rng.Intn(5) - 2
		o.events[id].priority = p
		ev = o.l.SchedulePriority(delay, p, fire)
	case 3:
		ev = o.l.ScheduleArg(delay, func(now Time, arg any) { o.fire(arg.(int), now) }, id)
	default:
		i := o.rng.Intn(len(o.timers))
		if prev := o.armed[i]; prev >= 0 {
			o.events[prev].live = false
		}
		o.armed[i] = id
		o.timers[i].Reset(delay)
		return
	}
	if ev.At() != at {
		o.t.Fatalf("event %d At() = %v, want %v", id, ev.At(), at)
	}
	o.events[id].ev = ev
}

// cancel cancels a random event handle from this round, live or not;
// canceling a fired or already-canceled event is a no-op.
func (o *firingOracle) cancel() {
	if len(o.events) == 0 {
		return
	}
	e := &o.events[o.rng.Intn(len(o.events))]
	if e.ev == (Event{}) {
		return // a timer arming: Stop and Reset cover it
	}
	e.ev.Cancel()
	e.live = false
}

// fire checks one firing against the reference, then acts from inside the
// handler.
func (o *firingOracle) fire(id int, now Time) {
	e := &o.events[id]
	if !e.live {
		o.t.Fatalf("event %d fired after cancel, stop or an earlier firing", id)
	}
	if now != e.at || now > o.deadline {
		o.t.Fatalf("event %d for %v fired at %v (deadline %v)", id, e.at, now, o.deadline)
	}
	if want := o.next(); want != id {
		w := o.events[want]
		o.t.Fatalf("fired event %d (at %v, priority %d), want %d (at %v, priority %d)",
			id, e.at, e.priority, want, w.at, w.priority)
	}
	e.live = false
	o.fired++
	for n := o.rng.Intn(3); n > 0; n-- {
		o.act()
	}
}

// next returns the live event with the least (at, priority, seq).
func (o *firingOracle) next() int {
	best := -1
	for id, e := range o.events {
		if !e.live {
			continue
		}
		if best < 0 {
			best = id
			continue
		}
		b := o.events[best]
		if e.at < b.at || e.at == b.at && e.priority < b.priority {
			best = id
		}
	}
	return best
}
