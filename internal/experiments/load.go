// Package experiments is the toolkit's page-load entry point and holds one
// driver per table and figure in the paper's evaluation, plus an
// open-ended scenario sweep.
//
// Load replays one page through a nest of shells and measures it, the
// analogue of `mm-delay 50 mm-link up down -- browser`: it builds fresh
// namespaces (as Mahimahi does per shell invocation) — ReplayShell serving
// the recorded or synthesized site, the shells, the browser's stack — and
// runs the load on a virtual clock. The command-line tools, the examples
// and the drivers replay through its builder (dynamics alone wires its
// scripted link by hand), so a load run by hand is the load an experiment
// measures.
//
// Each driver declares its site × shell-stack × trial grid as a list of
// Cells and runs it on the sharded engine (internal/engine); every cell's
// loads run on its shard's event loop and pools and report the same
// statistics the paper prints. Per-cell random seeds are derived from the
// cell's coordinates alone (sim.DeriveSeed), so every artifact is
// byte-identical at any shard count. The benchmarks in the repository root
// and cmd/mm-bench both call into this package, so the numbers in
// EXPERIMENTS.md are regenerated from exactly this code.
package experiments

import (
	"sync"

	"repro/internal/archive"
	"repro/internal/browser"
	"repro/internal/engine"
	"repro/internal/match"
	"repro/internal/nsim"
	"repro/internal/replayshell"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

// AppAddr is the address of the measured application's namespace in every
// experiment.
var AppAddr = nsim.ParseAddr("100.64.0.2")

// DefaultRequestCPU is the per-request replay-server cost used by the
// paper-replication drivers (Mahimahi's fork-a-CGI-per-request matcher
// costs low milliseconds on 2014 hardware).
const DefaultRequestCPU = 10 * sim.Millisecond

// hostJitterSigma is the per-load host noise (LoadSpec.CPUJitterSigma) of
// the drivers whose repeated loads differ: Table 1, Figure 3 and the sweep.
// The paper's standard deviations are within 1.6% of the mean.
const hostJitterSigma = 0.015

// LoadSpec describes a single replayed page load.
type LoadSpec struct {
	// Page drives the browser; Site is the archive to replay (defaults to
	// webgen.Materialize(Page)).
	Page *webgen.Page
	Site *archive.Site
	// SingleServer enables ReplayShell's §4 ablation mode.
	SingleServer bool
	// Shells are nested innermost-first between the app and ReplayShell.
	Shells []shells.Shell
	// DNSLatency is the replay resolver's uncached cost.
	DNSLatency sim.Time
	// RequestCPU is the per-request replay-server processing cost (the
	// CGI matcher); see replayshell.Config.RequestCPU.
	RequestCPU sim.Time
	// ECN enables RFC 3168 negotiation on both the browser's stack and the
	// replay servers', so all replayed traffic is ECT and marking qdiscs
	// (codel-ecn, pie-ecn, fq_codel-ecn) signal it without drops.
	ECN bool
	// CPUJitterSigma perturbs the browser's compute scale per load,
	// modelling host-machine noise (Table 1's machine-to-machine and
	// load-to-load variation). Zero gives bit-deterministic loads.
	CPUJitterSigma float64
	// Rand supplies the jitter; required when CPUJitterSigma > 0.
	Rand *sim.Rand
	// Browser overrides browser options; nil uses defaults.
	Browser *browser.Options
	// Scratch carries warmed object pools and working storage across
	// sequential loads (nil draws one from a shared pool for the duration
	// of the load). See Scratch.
	Scratch *Scratch
}

// Scratch bundles every reusable buffer and object pool a page load
// touches: an engine shard's event loop, packet/datagram pools and TCP
// segment pool, plus the browser's working storage and a per-site matcher
// index. One scratch serves one load at a time; reusing it across the
// sequential loads of a benchmark iteration or an engine shard's cells
// removes per-load pool warmup from the hot path. Scratch contents never
// influence results — only where allocations come from — so reuse
// preserves byte-identical experiment artifacts.
type Scratch struct {
	shard   *engine.Shard
	browser browser.Scratch

	matcherSite *archive.Site
	matcher     *match.Matcher
}

// NewScratch returns an empty scratch on a standalone shard.
func NewScratch() *Scratch { return &Scratch{shard: engine.NewShard()} }

// scratchFor returns the scratch parked on sh, so the page loads of every
// cell the shard runs share its loop and pools.
func scratchFor(sh *engine.Shard) *Scratch {
	return sh.Scratch("experiments.load", func() any { return &Scratch{shard: sh} }).(*Scratch)
}

// matcherFor returns a matcher index for site, rebuilding only when the
// site changes.
func (s *Scratch) matcherFor(site *archive.Site) *match.Matcher {
	if s.matcherSite != site {
		s.matcher = match.New(site)
		s.matcherSite = site
	}
	return s.matcher
}

// scratchPool recycles Scratches for Load calls without an explicit one.
// sync.Pool hands a scratch to exactly one goroutine at a time, so pooled
// reuse is race-free even when loads run concurrently.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// Load runs one page load in a fresh network and returns the result. The
// simulation's bulk allocations (packets, datagrams, segments, browser
// working storage, the replay matcher index) come from spec.Scratch — or
// from a shared recycled scratch when nil — so sequential loads reuse one
// warmed set of pools instead of reallocating it per load.
func Load(spec LoadSpec) browser.Result {
	if spec.Scratch == nil {
		sc := scratchPool.Get().(*Scratch)
		defer scratchPool.Put(sc)
		spec.Scratch = sc
	}
	return build(spec).run(0, nil)
}

// pageLoad is a built page load that has not started: the network on the
// scratch's shard, ReplayShell, the shell stack and the browser. Drivers
// that share the network with other traffic (isolation's noisy neighbour,
// bufferbloat's bulk flow) add it between build and run.
type pageLoad struct {
	loop    *sim.Loop
	net     *nsim.Network
	replay  *replayshell.Shell
	stack   *tcpsim.Stack // the browser's transport, in the app namespace
	browser *browser.Browser
	page    *webgen.Page
}

// build assembles spec's page load on spec.Scratch, which must be set.
func build(spec LoadSpec) pageLoad {
	sc := spec.Scratch
	loop := sc.shard.Loop()
	network := nsim.NewNetworkPooled(loop, sc.shard.Pools())
	site := spec.Site
	if site == nil {
		site = webgen.Materialize(spec.Page)
	}
	replay, err := replayshell.New(network, replayshell.Config{
		Site:         site,
		SingleServer: spec.SingleServer,
		DNSLatency:   spec.DNSLatency,
		RequestCPU:   spec.RequestCPU,
		Matcher:      sc.matcherFor(site),
		Segments:     sc.shard.Segments(),
	})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	st := shells.Build(network, replay.NS, AppAddr, spec.Shells...)

	opts := browser.DefaultOptions()
	if spec.Browser != nil {
		opts = *spec.Browser
	}
	if spec.CPUJitterSigma > 0 && spec.Rand != nil {
		opts.CPUScale *= 1 + spec.CPUJitterSigma*spec.Rand.NormFloat64()
		if opts.CPUScale < 0.1 {
			opts.CPUScale = 0.1
		}
	}
	stack := tcpsim.NewStackPool(st.App, sc.shard.Segments())
	stack.SetECN(spec.ECN)
	replay.Stack.SetECN(spec.ECN)
	b := browser.New(stack, replay.Resolver, AppAddr, opts)
	b.UseScratch(&sc.browser)
	return pageLoad{loop: loop, net: network, replay: replay, stack: stack, browser: b, page: spec.Page}
}

// run starts the load at virtual time at (0: now) and drains the loop.
// done, when set, runs as the load completes, so a driver can stop the
// traffic it added and let the loop drain.
func (l pageLoad) run(at sim.Time, done func()) browser.Result {
	var result browser.Result
	finish := func(r browser.Result) {
		result = r
		if done != nil {
			done()
		}
	}
	if at > 0 {
		l.loop.Schedule(at, func(sim.Time) { l.browser.Load(l.page, finish) })
	} else {
		l.browser.Load(l.page, finish)
	}
	l.loop.Run()
	return result
}

// PLTms runs Load and returns the page load time in milliseconds.
func PLTms(spec LoadSpec) float64 {
	return Load(spec).PLT.Milliseconds()
}
