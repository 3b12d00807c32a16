// Package shells implements Mahimahi's network-emulation shells —
// DelayShell and LinkShell — and their composition.
//
// In Mahimahi each shell forks a new network namespace joined to its parent
// by a veth pair; the shell's queues shape the traffic crossing the pair,
// and shells nest arbitrarily (`mm-delay 50 mm-link up.trace down.trace --
// chrome`). Here a Shell contributes one netem box per direction, and a
// Stack of shells is realized as a chain of namespaces:
//
//	app namespace ←veth→ shell₁ ns ←veth→ shell₂ ns ←veth→ ... ←veth→ world
//
// with each veth pair shaped by the inner shell's boxes, exactly mirroring
// the process/namespace tree Mahimahi builds.
package shells

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/nsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Shell contributes emulation boxes to one nesting level.
type Shell interface {
	// Name identifies the shell for diagnostics, e.g. "delay-30ms".
	Name() string
	// Boxes returns fresh uplink and downlink boxes for this shell's
	// namespace boundary. Each call must return new boxes (a shell may be
	// instantiated several times).
	Boxes(loop *sim.Loop) (up, down netem.Box)
}

// DelayShell applies a fixed one-way delay in each direction (mm-delay).
type DelayShell struct {
	// OneWay is the per-direction fixed delay.
	OneWay sim.Time
}

// NewDelayShell returns a DelayShell with the given one-way delay.
func NewDelayShell(oneWay sim.Time) *DelayShell { return &DelayShell{OneWay: oneWay} }

// Name implements Shell.
func (d *DelayShell) Name() string { return fmt.Sprintf("delay-%v", d.OneWay) }

// Boxes implements Shell.
func (d *DelayShell) Boxes(loop *sim.Loop) (netem.Box, netem.Box) {
	return netem.NewDelayBox(loop, d.OneWay), netem.NewDelayBox(loop, d.OneWay)
}

// LinkShell emulates a trace-driven link (mm-link): independent uplink and
// downlink packet-delivery traces, each fronted by a queue discipline
// chosen per direction, mirroring mm-link's --uplink-queue/--downlink-queue.
type LinkShell struct {
	Up, Down *trace.Trace
	// UpQueue and DownQueue select each direction's queue discipline. The
	// zero spec is an unbounded droptail queue, Mahimahi's default.
	UpQueue, DownQueue netem.QdiscSpec
}

// NewLinkShell returns a LinkShell with the given per-direction traces.
func NewLinkShell(up, down *trace.Trace) *LinkShell {
	return &LinkShell{Up: up, Down: down}
}

// Name implements Shell. Droptail links keep the historical name (so every
// existing artifact's cell coordinates — and therefore its derived seeds —
// are unchanged); non-default disciplines append their labels, making
// distinct qdisc scenarios distinct cell coordinates.
func (l *LinkShell) Name() string {
	name := fmt.Sprintf("link-%s-%s", l.Up.Name(), l.Down.Name())
	up, down := l.UpQueue, l.DownQueue
	defaultKind := func(s netem.QdiscSpec) bool {
		return s.Kind == "" || s.Kind == netem.QdiscDropTail
	}
	if defaultKind(up) && defaultKind(down) {
		return name
	}
	if up == down {
		return name + "+" + up.String()
	}
	return name + "+" + up.String() + "/" + down.String()
}

// Boxes implements Shell.
func (l *LinkShell) Boxes(loop *sim.Loop) (netem.Box, netem.Box) {
	return netem.NewTraceBox(loop, l.Up.Cursor(), l.UpQueue.Build()),
		netem.NewTraceBox(loop, l.Down.Cursor(), l.DownQueue.Build())
}

// LossShell drops packets with a fixed probability per direction (mm-loss,
// a Mahimahi extension beyond the demo paper).
type LossShell struct {
	UpProb, DownProb float64
	// Seed derives the two directions' loss streams deterministically.
	Seed uint64
}

// Name implements Shell.
func (l *LossShell) Name() string {
	return fmt.Sprintf("loss-%g-%g", l.UpProb, l.DownProb)
}

// Boxes implements Shell.
func (l *LossShell) Boxes(loop *sim.Loop) (netem.Box, netem.Box) {
	rng := sim.NewRand(l.Seed)
	return netem.NewLossBox(l.UpProb, rng.Fork()), netem.NewLossBox(l.DownProb, rng.Fork())
}

// ImpairShell applies the rest of tc-netem's impairment vocabulary —
// reordering, duplication, corruption, and 4-state Markov loss — to both
// directions (mm-link's -reorder/-duplicate/-corrupt/-loss-state flags).
// Arms with zero probability are pure passthroughs (zero RNG draws), so an
// ImpairShell with a single active arm perturbs nothing else. Each
// direction and each arm draws from its own forked stream in a fixed
// order, so enabling one arm cannot desynchronize another.
type ImpairShell struct {
	// ReorderProb/ReorderCorr select packets for displacement; ReorderGap
	// is the candidate stride (values < 1 mean every packet); ReorderHold
	// is how long a displaced packet is parked on the virtual clock.
	ReorderProb, ReorderCorr float64
	ReorderGap               int
	ReorderHold              sim.Time
	// DuplicateProb/DuplicateCorr clone selected packets.
	DuplicateProb, DuplicateCorr float64
	// CorruptProb/CorruptCorr flag selected packets as bit-damaged; the
	// receiving transport discards them as checksum failures.
	CorruptProb, CorruptCorr float64
	// FourState, when non-nil, adds a 4-state Markov loss box with
	// parameters [p13, p31, p32, p23, p14] (netem.NewMarkov4State).
	FourState []float64
	// Seed derives every arm's draw streams deterministically.
	Seed uint64
}

// Name implements Shell: only active arms appear in the label.
func (im *ImpairShell) Name() string {
	name := "impair"
	if im.ReorderProb > 0 {
		name += fmt.Sprintf("-r%g/%g", im.ReorderProb, im.ReorderCorr)
	}
	if im.DuplicateProb > 0 {
		name += fmt.Sprintf("-d%g/%g", im.DuplicateProb, im.DuplicateCorr)
	}
	if im.CorruptProb > 0 {
		name += fmt.Sprintf("-c%g/%g", im.CorruptProb, im.CorruptCorr)
	}
	if im.FourState != nil {
		name += fmt.Sprintf("-4s%g", im.FourState)
	}
	return name
}

// Boxes implements Shell: each direction is a pipeline of the active arms
// in a fixed order (loss, reorder, duplicate, corrupt). RNG streams fork
// in that same fixed order regardless of which arms are active.
func (im *ImpairShell) Boxes(loop *sim.Loop) (netem.Box, netem.Box) {
	rng := sim.NewRand(im.Seed)
	dir := func() netem.Box {
		var arms []netem.Box
		lossRng, reorderRng, dupRng, corruptRng := rng.Fork(), rng.Fork(), rng.Fork(), rng.Fork()
		if p := im.FourState; p != nil {
			arms = append(arms, netem.NewLossBoxModel(
				netem.NewMarkov4State(p[0], p[1], p[2], p[3], p[4]), lossRng))
		}
		if im.ReorderProb > 0 {
			hold := im.ReorderHold
			if hold <= 0 {
				hold = 10 * sim.Millisecond
			}
			arms = append(arms, netem.NewReorderBox(loop,
				im.ReorderProb, im.ReorderCorr, im.ReorderGap, hold, reorderRng))
		}
		if im.DuplicateProb > 0 {
			arms = append(arms, netem.NewDuplicateBox(im.DuplicateProb, im.DuplicateCorr, dupRng))
		}
		if im.CorruptProb > 0 {
			arms = append(arms, netem.NewCorruptBox(im.CorruptProb, im.CorruptCorr, corruptRng))
		}
		return netem.NewPipeline(arms...)
	}
	return dir(), dir()
}

// Stack is an instantiated nest of shells between an application namespace
// and a world namespace.
type Stack struct {
	// App is the innermost namespace, where the measured application (the
	// browser model) runs.
	App *nsim.Namespace
	// World is the outermost namespace, where ReplayShell's servers (or
	// the live-web model) live.
	World *nsim.Namespace
	// Inner is the app-side link end (for adding routes); Outer is the
	// world-side end.
	Inner, Outer *nsim.LinkEnd
	shellNames   []string
}

// Shells reports the names of the nested shells, innermost first.
func (s *Stack) Shells() []string { return s.shellNames }

// Build instantiates a nest of shells inside the network. The app
// namespace is created innermost; world must already exist. Shells are
// given innermost-first (shell[0] is closest to the app), matching the
// left-to-right order of a Mahimahi command line.
//
// Build wires default routes: the app routes everything toward the world,
// and each intermediate namespace routes app-ward traffic back. The world
// side gets a route for the app's address via the chain.
func Build(net *nsim.Network, world *nsim.Namespace, appAddr nsim.Addr, shellList ...Shell) *Stack {
	loop := net.Loop()
	app := net.NewNamespace("app")
	app.AddAddress(appAddr)

	// Chain: app — s1 — s2 — ... — world. Each shell owns the boundary
	// between its namespace and the next outer one. With zero shells the
	// app connects to the world directly over an unshaped veth.
	inner := app
	var innerEnd *nsim.LinkEnd
	names := make([]string, 0, len(shellList))
	for i, sh := range shellList {
		names = append(names, sh.Name())
		shellNS := net.NewNamespace(fmt.Sprintf("shell%d-%s", i+1, sh.Name()))
		up, down := sh.Boxes(loop)
		inEnd, outEnd := nsim.Connect(inner, shellNS,
			netem.NewPipeline(up), netem.NewPipeline(down))
		// Inner namespace routes outward through this boundary.
		inner.AddDefaultRoute(inEnd)
		// The shell namespace routes app-ward traffic back down the chain.
		shellNS.AddRoute(appAddr, 32, outEnd)
		if innerEnd == nil {
			innerEnd = inEnd
		}
		inner = shellNS
	}
	inEnd, outEnd := nsim.Connect(inner, world, nil, nil)
	inner.AddDefaultRoute(inEnd)
	world.AddRoute(appAddr, 32, outEnd)
	if innerEnd == nil {
		innerEnd = inEnd
	}
	return &Stack{App: app, World: world, Inner: innerEnd, Outer: outEnd, shellNames: names}
}
