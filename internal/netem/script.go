package netem

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// DrainPolicy selects what happens to packets queued behind a scripted
// reconfiguration boundary (a qdisc hot-swap, a link coming back up).
type DrainPolicy int

const (
	// DrainHold keeps the backlog: a qdisc swap re-enqueues it into the
	// new discipline at the transition instant (sojourn restarts, the new
	// admission law applies); a link-up replays it downstream in order.
	DrainHold DrainPolicy = iota
	// DrainFlush discards the backlog with drop accounting — the modem
	// buffer was purged, transports must retransmit.
	DrainFlush
)

// String renders the policy for transition transcripts.
func (p DrainPolicy) String() string {
	if p == DrainFlush {
		return "flush"
	}
	return "hold"
}

// QdiscHolder is a box whose queue discipline a script can hot-swap:
// TraceBox, RateBox and GateBox implement it, through the txQueue front
// they share.
type QdiscHolder interface {
	Queue() Qdisc
	SwapQdisc(q Qdisc, policy DrainPolicy) (moved, dropped int)
}

// Transition records one scripted mutation as it fired: the virtual
// instant, the step's label, and how the backlog at the boundary was
// handled (packets moved into the new configuration vs. dropped). The
// transcript is in firing order — a pure function of the script on the
// virtual clock, so it is part of the byte-identical artifact surface.
type Transition struct {
	At      sim.Time
	Label   string
	Moved   int
	Dropped int
}

// Epoch is the telemetry of one inter-transition phase of the watched
// queue: deltas of the queue's cumulative counters between two script
// instants. Deltas (not snapshots) make the per-phase attribution exact
// even when the underlying qdisc object survives the transition, and a
// swapped-out qdisc's final counters close its epoch before the new
// discipline's baseline opens the next.
type Epoch struct {
	// From/To bound the phase; Label names the transition that ended it
	// ("end" for the final epoch closed by Finish).
	From, To sim.Time
	Label    string
	// Counter deltas over the phase.
	Enqueued, Dequeued  uint64
	TailDrops, AQMDrops uint64
	AQMMarks, Flushed   uint64
	SojournCount        uint64
	SojournSum          sim.Time
}

// MeanSojournMs is the phase's mean queueing delay in milliseconds.
func (e Epoch) MeanSojournMs() float64 {
	if e.SojournCount == 0 {
		return 0
	}
	return (e.SojournSum / sim.Time(e.SojournCount)).Milliseconds()
}

// ScenarioScript is a virtual-clock-scheduled mutation plan: a list of
// (instant, mutation) steps armed at setup time, each rewriting link,
// qdisc or loss parameters of live boxes when the clock reaches it — link
// flap, rate step, trace handover, loss step, AQM hot-swap. This is the
// chaos-scheduler pattern (pumba's scheduled netem chaos) mapped onto the
// deterministic event loop: because steps fire at scripted virtual
// instants, the entire fault timeline is part of the cell's definition,
// and a run with faults is exactly as reproducible as one without.
//
// The script records a Transition per fired step and, for one watched
// queue, per-phase QueueStats epochs (deltas between transitions), both
// rendered into experiment artifacts. The packet path between transitions
// is untouched — boxes read their mutable parameters exactly as before —
// so the mutation seam costs nothing off the transition instants (the
// scripted-scenario benchmark pins 0 allocs/op on the packet path).
type ScenarioScript struct {
	loop        *sim.Loop
	transitions []Transition
	epochs      []Epoch
	watched     Qdisc
	// base is the watched queue's counters at the running epoch's start,
	// the snapshot its deltas are taken against.
	base     QueueStats
	lastAt   sim.Time
	finished bool
}

// NewScenarioScript returns an empty script bound to the loop. Add steps
// before Run; call Finish after the loop drains to close the last epoch.
func NewScenarioScript(loop *sim.Loop) *ScenarioScript {
	return &ScenarioScript{loop: loop}
}

// Watch starts per-phase epoch accounting on q (typically the bottleneck
// downlink queue). Call at setup, before traffic flows.
func (s *ScenarioScript) Watch(q Qdisc) {
	s.watched = q
	s.base = *q.QueueStats()
	s.lastAt = s.loop.Now()
}

// At schedules a raw mutation step: at virtual time t, fn runs and reports
// how many backlog packets the mutation moved and dropped, plus the qdisc
// to watch from then on (nil keeps the current one). The typed helpers
// below cover the standard mutations; At is the escape hatch for scenario
// authors composing new ones.
func (s *ScenarioScript) At(t sim.Time, label string, fn func(now sim.Time) (moved, dropped int, watch Qdisc)) {
	s.loop.ScheduleAt(t, func(now sim.Time) {
		moved, dropped, watch := fn(now)
		s.transitions = append(s.transitions, Transition{At: now, Label: label, Moved: moved, Dropped: dropped})
		s.closeEpoch(now, label)
		if watch != nil && watch != s.watched {
			s.watched = watch
			s.base = *watch.QueueStats()
		}
	})
}

// closeEpoch ends the running phase at now. The watched pointer still
// names the pre-transition qdisc when the step swapped it, so flush
// accounting from the swap lands in the epoch it belongs to.
func (s *ScenarioScript) closeEpoch(now sim.Time, label string) {
	if s.watched == nil {
		return
	}
	cur := *s.watched.QueueStats()
	s.epochs = append(s.epochs, Epoch{
		From: s.lastAt, To: now, Label: label,
		Enqueued:     cur.Enqueued - s.base.Enqueued,
		Dequeued:     cur.Dequeued - s.base.Dequeued,
		TailDrops:    cur.TailDrops - s.base.TailDrops,
		AQMDrops:     cur.AQMDrops - s.base.AQMDrops,
		AQMMarks:     cur.AQMMarks - s.base.AQMMarks,
		Flushed:      cur.Flushed - s.base.Flushed,
		SojournCount: cur.SojournCount - s.base.SojournCount,
		SojournSum:   cur.SojournSum - s.base.SojournSum,
	})
	s.base = cur
	s.lastAt = now
}

// Finish closes the final epoch at now (call once, after loop.Run
// returns). Idempotent.
func (s *ScenarioScript) Finish(now sim.Time) {
	if s.finished {
		return
	}
	s.finished = true
	s.closeEpoch(now, "end")
}

// Transitions returns the fired-transition transcript in firing order.
func (s *ScenarioScript) Transitions() []Transition { return s.transitions }

// Epochs returns the per-phase telemetry of the watched queue.
func (s *ScenarioScript) Epochs() []Epoch { return s.epochs }

// LinkDown schedules an outage start on a scripted gate.
func (s *ScenarioScript) LinkDown(t sim.Time, g *GateBox) {
	s.At(t, "link-down", func(sim.Time) (int, int, Qdisc) {
		moved, dropped := g.SetOn(false, DrainHold)
		return moved, dropped, nil
	})
}

// LinkUp schedules the outage's end; policy decides the held backlog's
// fate (DrainHold replays it, DrainFlush drops it with accounting).
func (s *ScenarioScript) LinkUp(t sim.Time, g *GateBox, policy DrainPolicy) {
	s.At(t, "link-up-"+policy.String(), func(sim.Time) (int, int, Qdisc) {
		moved, dropped := g.SetOn(true, policy)
		return moved, dropped, nil
	})
}

// RateStep schedules a link-rate change on a RateBox.
func (s *ScenarioScript) RateStep(t sim.Time, r *RateBox, bitsPerSec int64) {
	s.At(t, fmt.Sprintf("rate-%dbps", bitsPerSec), func(sim.Time) (int, int, Qdisc) {
		r.SetRate(bitsPerSec)
		return 0, 0, nil
	})
}

// Handover schedules a trace handover on a TraceBox (e.g. LTE→wifi): the
// box keeps its queue and backlog but delivers at the new source's
// opportunities from t on. label names the target network in the
// transcript.
func (s *ScenarioScript) Handover(t sim.Time, tb *TraceBox, opps OpportunitySource, label string) {
	s.At(t, "handover-"+label, func(sim.Time) (int, int, Qdisc) {
		tb.SetSource(opps)
		return 0, 0, nil
	})
}

// LossModelSwap schedules a loss-model change on a LossBox (e.g. Bernoulli
// → Gilbert-Elliott at the moment the user walks behind a building).
func (s *ScenarioScript) LossModelSwap(t sim.Time, l *LossBox, model LossModel) {
	s.At(t, "loss-"+model.String(), func(sim.Time) (int, int, Qdisc) {
		l.SetModel(model)
		return 0, 0, nil
	})
}

// ReorderStep schedules a reorder-parameter change on a ReorderBox (0 → a
// reorder storm and back).
func (s *ScenarioScript) ReorderStep(t sim.Time, r *ReorderBox, prob, corr float64) {
	s.At(t, fmt.Sprintf("reorder-%g/%g", prob, corr), func(sim.Time) (int, int, Qdisc) {
		r.SetReorder(prob, corr)
		return 0, 0, nil
	})
}

// DuplicateStep schedules a duplication-parameter change on a DuplicateBox.
func (s *ScenarioScript) DuplicateStep(t sim.Time, d *DuplicateBox, prob, corr float64) {
	s.At(t, fmt.Sprintf("duplicate-%g/%g", prob, corr), func(sim.Time) (int, int, Qdisc) {
		d.SetDuplicate(prob, corr)
		return 0, 0, nil
	})
}

// CorruptStep schedules a corruption-parameter change on a CorruptBox.
func (s *ScenarioScript) CorruptStep(t sim.Time, c *CorruptBox, prob, corr float64) {
	s.At(t, fmt.Sprintf("corrupt-%g/%g", prob, corr), func(sim.Time) (int, int, Qdisc) {
		c.SetCorrupt(prob, corr)
		return 0, 0, nil
	})
}

// SwapQdisc schedules an AQM hot-swap on a qdisc-holding box (droptail →
// codel mid-run). The replacement is built from spec at setup time —
// construction allocates, firing does not — and becomes the script's
// watched queue, inheriting the epoch accounting from the instant of the
// swap.
func (s *ScenarioScript) SwapQdisc(t sim.Time, h QdiscHolder, spec QdiscSpec, policy DrainPolicy) {
	next := spec.Build()
	s.At(t, "qdisc-"+spec.String()+"-"+policy.String(), func(sim.Time) (int, int, Qdisc) {
		old := h.Queue()
		moved, dropped := h.SwapQdisc(next, policy)
		if s.watched == old {
			// The watched queue was swapped out: after this epoch closes
			// (against the old qdisc's final counters), accounting follows
			// the replacement.
			return moved, dropped, next
		}
		return moved, dropped, nil
	})
}

// RenderTranscript renders a script's transition transcript and epoch
// table as artifact text, each line indented by two spaces: one line per
// transition, then one per phase. Experiment drivers embed it in their
// deterministic output.
func RenderTranscript(b *strings.Builder, transitions []Transition, epochs []Epoch) {
	for _, tr := range transitions {
		fmt.Fprintf(b, "  @%-9v %-24s moved=%-4d dropped=%d\n",
			tr.At, tr.Label, tr.Moved, tr.Dropped)
	}
	if len(epochs) == 0 {
		return
	}
	fmt.Fprintf(b, "  %-34s %6s %6s %7s %7s %7s %7s %8s\n",
		"phase", "enq", "deq", "taildrp", "aqmdrp", "aqmmark", "flushed", "meanq ms")
	for _, e := range epochs {
		fmt.Fprintf(b, "  %-34s %6d %6d %7d %7d %7d %7d %8.1f\n",
			fmt.Sprintf("%v..%v %s", e.From, e.To, e.Label),
			e.Enqueued, e.Dequeued,
			e.TailDrops, e.AQMDrops, e.AQMMarks, e.Flushed, e.MeanSojournMs())
	}
}
