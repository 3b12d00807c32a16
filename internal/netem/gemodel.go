package netem

import (
	"fmt"

	"repro/internal/sim"
)

// LossModel decides, per packet, whether a LossBox drops it. Models draw
// from the box's dedicated sim.Rand stream and nothing else, so a loss
// pattern is a pure function of (model parameters, seed, packet count) and
// every artifact built on one is byte-identical across runs and
// parallelism. A model must consume a fixed number of draws per Drop call
// for given parameters (Bernoulli: one draw when p > 0, none otherwise;
// Markov4State, and so Gilbert-Elliott: always two), so swapping models
// mid-run at a scripted instant leaves the draw stream aligned
// deterministically.
type LossModel interface {
	// Drop reports whether the current packet is lost, advancing the
	// model's state and consuming its draws from rng.
	Drop(rng *sim.Rand) bool
	// String renders the model as a compact label for artifacts
	// ("bernoulli-0.01", "gemodel-p0.05-r0.3").
	String() string
}

// Bernoulli drops each packet independently with probability P — the
// original mm-loss behavior. With P == 0 no draw is consumed, preserving
// the draw stream of a loss-free box exactly (artifacts from before loss
// models existed depend on this).
type Bernoulli struct {
	P float64
}

// NewBernoulli returns an independent-loss model with probability p in
// [0, 1].
func NewBernoulli(p float64) *Bernoulli {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("netem: loss probability %v outside [0,1]", p))
	}
	return &Bernoulli{P: p}
}

// Drop implements LossModel.
func (m *Bernoulli) Drop(rng *sim.Rand) bool {
	return m.P > 0 && rng.Float64() < m.P
}

// String implements LossModel.
func (m *Bernoulli) String() string { return fmt.Sprintf("bernoulli-%g", m.P) }

// NewGilbertElliott returns the classic Gilbert model of tc-netem's
// `loss gemodel`: the channel alternates between a Good state and a Bad
// (burst) state, moving Good→Bad with probability p and Bad→Good with
// probability r per packet, and every Bad-state packet is lost. Start state
// is Good. Mean burst length is 1/r packets; the stationary loss rate is
// p/(p+r).
func NewGilbertElliott(p, r float64) *Markov4State {
	return NewGilbertElliottFull(p, r, 0, 1)
}

// NewGilbertElliottFull returns the 4-parameter Gilbert-Elliott model with
// explicit per-state delivery probabilities h (Bad) and k (Good); its
// stationary loss rate is p/(p+r)·(1-h) + r/(p+r)·(1-k). It is the 4-state
// chain with Good as state 1 and Bad as state 3: P32 and P14 are zero, so
// states 2 and 4 are unreachable.
func NewGilbertElliottFull(p, r, h, k float64) *Markov4State {
	return NewMarkov4StateFull(p, r, 0, 0, 0, [4]float64{k, 1, h, 0})
}

// Markov4State states, numbered as in tc-netem's `loss state` model.
const (
	// StateGapTx: good reception within a gap period.
	StateGapTx = 1
	// StateBurstTx: good reception within a burst period.
	StateBurstTx = 2
	// StateBurstLoss: burst losses (every packet lost, classically).
	StateBurstLoss = 3
	// StateGapLoss: independent, isolated losses within a gap period.
	StateGapLoss = 4
)

// Markov4State is the 4-state Markov loss model of tc-netem's `loss state`
// (the remaining entry in pumba's loss vocabulary): a gap period — good
// reception (state 1) with isolated single losses (state 4) — alternates
// with a burst period — runs of loss (state 3) with good sub-runs inside the
// burst (state 2). Transitions per packet:
//
//	     P13                 P32
//	1 ─────────▶ 3      3 ─────────▶ 2
//	1 ◀───────── 3      3 ◀───────── 2
//	     P31                 P23
//	1 ─────────▶ 4 ─────────▶ 1   (P14; return is certain)
//
// Exactly two draws are consumed per packet — one transition flip, one
// loss draw against the new state's delivery probability — so the stream
// position after n packets is 2n and scripted swaps between any two-draw
// models stay aligned. The classic model fixes delivery at (1, 1, 0, 0):
// states 1 and 2 deliver, states 3 and 4 lose; Deliver lets a cell soften
// that per state.
type Markov4State struct {
	P13 float64 // P(gap-tx → burst-loss): burst begins
	P31 float64 // P(burst-loss → gap-tx): burst ends
	P32 float64 // P(burst-loss → burst-tx): good sub-run inside the burst
	P23 float64 // P(burst-tx → burst-loss): sub-run ends
	P14 float64 // P(gap-tx → gap-loss): isolated loss (returns to 1 next packet)

	// Deliver is the per-state delivery probability, indexed [state-1].
	Deliver [4]float64

	state int
}

// NewMarkov4State returns the classic 4-state model with delivery
// probabilities (1, 1, 0, 0): the transition chain alone decides loss.
// Probabilities must lie in [0, 1], with P13+P14 <= 1 and P31+P32 <= 1.
func NewMarkov4State(p13, p31, p32, p23, p14 float64) *Markov4State {
	return NewMarkov4StateFull(p13, p31, p32, p23, p14, [4]float64{1, 1, 0, 0})
}

// NewMarkov4StateFull returns a 4-state model with explicit per-state
// delivery probabilities (deliver[s-1] for state s).
func NewMarkov4StateFull(p13, p31, p32, p23, p14 float64, deliver [4]float64) *Markov4State {
	for _, v := range [5]float64{p13, p31, p32, p23, p14} {
		if v < 0 || v > 1 {
			panic(fmt.Sprintf("netem: 4-state parameter %v outside [0,1]", v))
		}
	}
	for _, v := range deliver {
		if v < 0 || v > 1 {
			panic(fmt.Sprintf("netem: 4-state delivery probability %v outside [0,1]", v))
		}
	}
	if p13+p14 > 1 {
		panic(fmt.Sprintf("netem: 4-state p13+p14 = %v exceeds 1", p13+p14))
	}
	if p31+p32 > 1 {
		panic(fmt.Sprintf("netem: 4-state p31+p32 = %v exceeds 1", p31+p32))
	}
	return &Markov4State{
		P13: p13, P31: p31, P32: p32, P23: p23, P14: p14,
		Deliver: deliver, state: StateGapTx,
	}
}

// State reports the chain's current state (1..4).
func (m *Markov4State) State() int { return m.state }

// Drop implements LossModel: one transition draw, one loss draw, always.
func (m *Markov4State) Drop(rng *sim.Rand) bool {
	flip := rng.Float64()
	switch m.state {
	case StateGapTx:
		switch {
		case flip < m.P13:
			m.state = StateBurstLoss
		case flip < m.P13+m.P14:
			m.state = StateGapLoss
		}
	case StateBurstTx:
		if flip < m.P23 {
			m.state = StateBurstLoss
		}
	case StateBurstLoss:
		switch {
		case flip < m.P31:
			m.state = StateGapTx
		case flip < m.P31+m.P32:
			m.state = StateBurstTx
		}
	default: // StateGapLoss: the isolated loss is over, return is certain
		m.state = StateGapTx
	}
	return rng.Float64() >= m.Deliver[m.state-1]
}

// String implements LossModel. A chain that cannot leave states 1 and 3
// is a Gilbert-Elliott model and takes tc-netem's gemodel spelling.
func (m *Markov4State) String() string {
	if m.P32 == 0 && m.P14 == 0 {
		p, r, h, k := m.P13, m.P31, m.Deliver[2], m.Deliver[0]
		if h == 0 && k == 1 {
			return fmt.Sprintf("gemodel-p%g-r%g", p, r)
		}
		return fmt.Sprintf("gemodel-p%g-r%g-h%g-k%g", p, r, h, k)
	}
	s := fmt.Sprintf("4state-p13:%g-p31:%g-p32:%g-p23:%g-p14:%g",
		m.P13, m.P31, m.P32, m.P23, m.P14)
	if m.Deliver != [4]float64{1, 1, 0, 0} {
		s += fmt.Sprintf("-d:%g/%g/%g/%g",
			m.Deliver[0], m.Deliver[1], m.Deliver[2], m.Deliver[3])
	}
	return s
}
