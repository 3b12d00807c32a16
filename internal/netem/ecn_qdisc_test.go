package netem

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// runAQMSchedule drives a qdisc through the golden arrival/departure
// schedule (n MTU packets at arrivalEvery spacing, one dequeue per
// serviceEvery) and records every control-law event as "t=<tick>
// drops|marks=<delta>". The same harness drives drop-mode and mark-mode
// disciplines, so their sequences are directly comparable.
func runAQMSchedule(q Qdisc, ect bool, arrivalEvery, serviceEvery sim.Time, n int) (drops, marks []string) {
	arrivals := 0
	var lastDrops, lastMarks uint64
	note := func(tick sim.Time) {
		qs := q.QueueStats()
		if d := qs.AQMDrops - lastDrops; d > 0 {
			drops = append(drops, fmt.Sprintf("t=%v drops=%d", tick, d))
			lastDrops = qs.AQMDrops
		}
		if m := qs.AQMMarks - lastMarks; m > 0 {
			marks = append(marks, fmt.Sprintf("t=%v marks=%d", tick, m))
			lastMarks = qs.AQMMarks
		}
	}
	for tick := sim.Time(0); arrivals < n || q.Len() > 0; tick += sim.Millisecond {
		if arrivals < n && tick%arrivalEvery == 0 {
			q.Enqueue(&Packet{Size: MTU, Seq: int64(arrivals), ECT: ect}, tick)
			arrivals++
			note(tick) // PIE judges at enqueue
		}
		if tick%serviceEvery == 0 && q.Len() > 0 {
			q.Dequeue(tick)
			note(tick) // CoDel judges at dequeue
		}
	}
	return drops, marks
}

// codelGoldenLaw is the first 20 control-law instants of the CoDel golden
// schedule (400 packets at 2 ms spacing, one dequeue per 5 ms — a 2.5x
// overload), shared by TestCoDelGoldenTrace (drop mode) and the marking
// golden below: RFC 8289 §4.1's marking variant changes what the law does
// at each firing, not when it fires on this schedule.
var codelGoldenLaw = []sim.Time{
	110 * sim.Millisecond, 210 * sim.Millisecond, 285 * sim.Millisecond,
	340 * sim.Millisecond, 390 * sim.Millisecond, 435 * sim.Millisecond,
	475 * sim.Millisecond, 515 * sim.Millisecond, 550 * sim.Millisecond,
	585 * sim.Millisecond, 615 * sim.Millisecond, 645 * sim.Millisecond,
	675 * sim.Millisecond, 700 * sim.Millisecond, 730 * sim.Millisecond,
	755 * sim.Millisecond, 780 * sim.Millisecond, 805 * sim.Millisecond,
	825 * sim.Millisecond, 850 * sim.Millisecond,
}

// TestCoDelMarkGoldenTrace pins the marking control law on the virtual
// clock: under the golden overload schedule with all-ECT arrivals, a
// codel-ecn queue must CE-mark — never drop — at exactly the instants the
// drop-mode golden trace drops. Any drift in the ECN branch of the deque
// state machine (mark placement, count advance, dropNext arithmetic) shows
// up as a diff against this sequence.
func TestCoDelMarkGoldenTrace(t *testing.T) {
	q := QdiscSpec{Kind: QdiscCoDel, ECN: true}.Build()
	drops, marks := runAQMSchedule(q, true, 2*sim.Millisecond, 5*sim.Millisecond, 400)
	if len(drops) != 0 {
		t.Fatalf("marking codel dropped: %v", drops)
	}
	if len(marks) < len(codelGoldenLaw) {
		t.Fatalf("mark sequence too short: %d events\n%v", len(marks), marks)
	}
	for i, at := range codelGoldenLaw {
		want := fmt.Sprintf("t=%v marks=1", at)
		if marks[i] != want {
			t.Fatalf("mark event %d = %q, want %q\nfull sequence: %v", i, marks[i], want, marks[:25])
		}
	}
	qs := q.QueueStats()
	if qs.AQMMarks == 0 || qs.AQMDrops != 0 || qs.TailDrops != 0 {
		t.Fatalf("queue stats = %+v", qs)
	}
	// Every arrival was delivered: marking never removes packets.
	if qs.Dequeued != 400 {
		t.Fatalf("delivered %d of 400", qs.Dequeued)
	}
}

// pieGoldenDrops is the first 20 drop instants of PIE under the golden
// schedule: ~150 ms of silence (MAX_BURST allowance), then the controller's
// ramp — the probability integrates up through the auto-tuning bands, so
// early drops are sparse and tighten as p grows. Pinning them freezes the
// whole §4.2 arithmetic: alpha/beta gains, the scaling table, the update
// cadence, and the deterministic draw stream.
var pieGoldenDrops = []sim.Time{
	202 * sim.Millisecond, 270 * sim.Millisecond, 290 * sim.Millisecond,
	292 * sim.Millisecond, 296 * sim.Millisecond, 312 * sim.Millisecond,
	324 * sim.Millisecond, 332 * sim.Millisecond, 342 * sim.Millisecond,
	352 * sim.Millisecond, 356 * sim.Millisecond, 364 * sim.Millisecond,
	366 * sim.Millisecond, 386 * sim.Millisecond, 388 * sim.Millisecond,
	390 * sim.Millisecond, 392 * sim.Millisecond, 400 * sim.Millisecond,
	404 * sim.Millisecond, 406 * sim.Millisecond,
}

// pieGoldenTotal is the schedule's total number of control-law firings.
const pieGoldenTotal = 192

// TestPIEGoldenTrace pins PIE's drop sequence on the virtual clock under
// the golden schedule (regenerate deliberately if the controller is
// changed on purpose).
func TestPIEGoldenTrace(t *testing.T) {
	drops, marks := runAQMSchedule(QdiscSpec{Kind: QdiscPIE}.Build(), false, 2*sim.Millisecond, 5*sim.Millisecond, 400)
	if len(marks) != 0 {
		t.Fatalf("drop-mode pie marked: %v", marks)
	}
	if len(drops) != pieGoldenTotal {
		t.Fatalf("drop count = %d, want %d", len(drops), pieGoldenTotal)
	}
	for i, at := range pieGoldenDrops {
		want := fmt.Sprintf("t=%v drops=1", at)
		if drops[i] != want {
			t.Fatalf("drop event %d = %q, want %q\nfull sequence: %v", i, drops[i], want, drops[:25])
		}
	}
}

// TestPIEMarkGoldenTrace pins the marking mode against the drop mode: with
// all-ECT arrivals, pie-ecn must CE-mark at exactly the instants drop-mode
// PIE drops — the judged decisions and the draw stream are identical, only
// the resolution differs — and must deliver every packet.
func TestPIEMarkGoldenTrace(t *testing.T) {
	q := QdiscSpec{Kind: QdiscPIE, ECN: true}.Build()
	drops, marks := runAQMSchedule(q, true, 2*sim.Millisecond, 5*sim.Millisecond, 400)
	if len(drops) != 0 {
		t.Fatalf("marking pie dropped: %v", drops)
	}
	if len(marks) != pieGoldenTotal {
		t.Fatalf("mark count = %d, want %d", len(marks), pieGoldenTotal)
	}
	for i, at := range pieGoldenDrops {
		want := fmt.Sprintf("t=%v marks=1", at)
		if marks[i] != want {
			t.Fatalf("mark event %d = %q, want %q\nfull sequence: %v", i, marks[i], want, marks[:25])
		}
	}
	if got := q.QueueStats().Dequeued; got != 400 {
		t.Fatalf("delivered %d of 400", got)
	}
}

// TestPIEBurstAllowance: a burst shorter than MAX_BURST passes an idle PIE
// queue untouched, however deep it momentarily is.
func TestPIEBurstAllowance(t *testing.T) {
	q := QdiscSpec{Kind: QdiscPIE}.Build()
	for i := 0; i < 100; i++ {
		if !q.Enqueue(&Packet{Size: MTU, Seq: int64(i)}, sim.Time(i)*sim.Millisecond) {
			t.Fatalf("burst packet %d dropped inside the allowance", i)
		}
	}
	if n := q.QueueStats().Drops(); n != 0 {
		t.Fatalf("drops inside burst allowance: %d", n)
	}
}

// TestPIEMarkOnlyOnAdmission: a judged ECT packet that the physical bound
// then tail-drops must count as a tail drop alone — marked packets are
// delivered, so marks can never exceed deliveries, per flow included.
func TestPIEMarkOnlyOnAdmission(t *testing.T) {
	q := QdiscSpec{Kind: QdiscPIE, Packets: 20, ECN: true}.Build()
	q.QueueStats().TrackFlows()
	arrivals := 0
	// 3x overload against a tiny physical buffer: the bound tail-drops
	// constantly while the controller also judges (and marks) arrivals.
	for tick := sim.Time(0); tick < 5*sim.Second; tick += sim.Millisecond {
		for i := 0; i < 3; i++ {
			q.Enqueue(&Packet{Size: MTU, Flow: 1, ECT: true}, tick)
			arrivals++
		}
		if q.Len() > 0 {
			q.Dequeue(tick)
		}
	}
	for q.Dequeue(5*sim.Second) != nil {
	}
	qs := q.QueueStats()
	if qs.TailDrops == 0 {
		t.Fatal("tiny buffer never tail-dropped under 3x overload")
	}
	if qs.AQMMarks == 0 {
		t.Fatal("controller never marked")
	}
	if qs.AQMMarks > qs.Dequeued {
		t.Fatalf("marks %d exceed deliveries %d: a tail-dropped packet was counted as marked",
			qs.AQMMarks, qs.Dequeued)
	}
	f := qs.Flow(1)
	if f.AQMMarks > f.Dequeued {
		t.Fatalf("flow marks %d exceed flow deliveries %d", f.AQMMarks, f.Dequeued)
	}
	if got := qs.Dequeued + qs.TailDrops + qs.AQMDrops; got != uint64(arrivals) {
		t.Fatalf("accounting leak: delivered+dropped = %d of %d arrivals", got, arrivals)
	}
}

// TestPIEPhysicalBound: the packet bound tail-drops like droptail,
// separately accounted from control-law drops.
func TestPIEPhysicalBound(t *testing.T) {
	q := QdiscSpec{Kind: QdiscPIE, Packets: 2}.Build()
	q.Enqueue(&Packet{Size: 1}, 0)
	q.Enqueue(&Packet{Size: 1}, 0)
	if q.Enqueue(&Packet{Size: 1}, 0) {
		t.Fatal("enqueue over physical bound succeeded")
	}
	qs := q.QueueStats()
	if qs.TailDrops != 1 || qs.AQMDrops != 0 {
		t.Fatalf("queue stats = %+v", qs)
	}
}

// TestPIEControlsStandingQueue: under sustained open-loop overload the
// controller's drop rate must converge near the overload fraction, holding
// the standing delay near target where an infinite FIFO would let it grow
// without bound.
func TestPIEControlsStandingQueue(t *testing.T) {
	q := QdiscSpec{Kind: QdiscPIE}.Build().(*PIE)
	var tick sim.Time
	arr := 0.0
	for tick = 0; tick < 10*sim.Second; tick += sim.Millisecond {
		// 1.3x overload of a 1 packet/ms service.
		arr += 1.3
		for arr >= 1 {
			arr--
			q.Enqueue(&Packet{Size: MTU}, tick)
		}
		if q.Len() > 0 {
			q.Dequeue(tick)
		}
	}
	if q.Len() > 50 {
		t.Fatalf("standing queue not controlled: %d packets", q.Len())
	}
	p := q.prob
	if p < 0.1 || p > 0.45 {
		t.Fatalf("drop probability %v not near the 23%% overload fraction", p)
	}
}

// TestQdiscSpecECNLabels: the ECN and PIE spec parameters are part of the
// label, so they form distinct experiment cell coordinates.
func TestQdiscSpecECNLabels(t *testing.T) {
	cases := map[string]QdiscSpec{
		"codel-ecn":      {Kind: QdiscCoDel, ECN: true},
		"codel-ecn-600p": {Kind: QdiscCoDel, ECN: true, Packets: 600},
		"pie":            {Kind: QdiscPIE},
		"pie-ecn":        {Kind: QdiscPIE, ECN: true},
		"pie-t25ms":      {Kind: QdiscPIE, Target: 25 * sim.Millisecond},
		"pie-u30ms":      {Kind: QdiscPIE, TUpdate: 30 * sim.Millisecond},
		"droptail":       {ECN: true}, // ECN is meaningless on droptail: not part of the label
	}
	for want, spec := range cases {
		if got := spec.String(); got != want {
			t.Fatalf("QdiscSpec%+v.String() = %q, want %q", spec, got, want)
		}
	}
	if _, ok := (QdiscSpec{Kind: QdiscPIE}).Build().(*PIE); !ok {
		t.Fatal("pie spec did not build PIE")
	}
	cd := QdiscSpec{Kind: QdiscCoDel, ECN: true}.Build().(*CoDel)
	if !cd.law.ecn {
		t.Fatal("codel spec dropped the ECN bit")
	}
	pe := QdiscSpec{Kind: QdiscPIE, ECN: true, Target: 25 * sim.Millisecond}.Build().(*PIE)
	if !pe.ecn || pe.target != 25*sim.Millisecond || pe.tUpdate != DefaultPIETUpdate {
		t.Fatalf("pie spec misbuilt: ecn=%v target=%v tupdate=%v", pe.ecn, pe.target, pe.tUpdate)
	}
}

// TestFlowAttributionBalances: per-flow records must sum to the aggregate
// counters across enqueues, deliveries, drops and marks.
func TestFlowAttributionBalances(t *testing.T) {
	q := QdiscSpec{Kind: QdiscCoDel, ECN: true, Packets: 50}.Build()
	q.QueueStats().TrackFlows()
	arrivals := 0
	for tick := sim.Time(0); arrivals < 400 || q.Len() > 0; tick += sim.Millisecond {
		if arrivals < 400 && tick%(2*sim.Millisecond) == 0 {
			// Flow 1 is ECT (marked), flow 2 is not (dropped).
			flow := uint64(1 + arrivals%2)
			q.Enqueue(&Packet{Size: MTU, Flow: flow, ECT: flow == 1}, tick)
			arrivals++
		}
		if tick%(5*sim.Millisecond) == 0 && q.Len() > 0 {
			q.Dequeue(tick)
		}
	}
	qs := q.QueueStats()
	ids := qs.Flows()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("flow ids = %v", ids)
	}
	var sum FlowQueueStats
	for _, id := range ids {
		sum.Add(qs.Flow(id))
	}
	if sum.Enqueued != qs.Enqueued || sum.Dequeued != qs.Dequeued ||
		sum.TailDrops != qs.TailDrops || sum.AQMDrops != qs.AQMDrops ||
		sum.AQMMarks != qs.AQMMarks || sum.SojournCount != qs.SojournCount ||
		sum.SojournSum != qs.SojournSum {
		t.Fatalf("per-flow sums %+v do not match aggregate %+v", sum, qs)
	}
	// The mixed traffic must split by capability: ECT flow marked and
	// never AQM-dropped, non-ECT flow dropped and never marked.
	ect, non := qs.Flow(1), qs.Flow(2)
	if ect.AQMMarks == 0 || ect.AQMDrops != 0 {
		t.Fatalf("ECT flow: %+v", ect)
	}
	if non.AQMDrops == 0 || non.AQMMarks != 0 {
		t.Fatalf("non-ECT flow: %+v", non)
	}
}
