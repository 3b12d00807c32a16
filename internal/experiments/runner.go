// Package experiments contains one driver per table and figure in the
// paper's evaluation, plus an open-ended scenario sweep. Each driver
// declares its site × shell-stack × trial grid as a Matrix and hands it to
// a Runner, the package's parallel scenario-matrix engine; every cell
// builds fresh namespaces per page load (as Mahimahi does per shell
// invocation), runs the load on a virtual clock, and reports the same
// statistics the paper prints. Per-cell random seeds are derived from the
// cell's coordinates alone (sim.DeriveSeed), so every artifact is
// byte-identical at any engine parallelism. The benchmarks in the
// repository root and cmd/mm-bench both call into this package, so the
// numbers in EXPERIMENTS.md are regenerated from exactly this code.
package experiments

import (
	"sync"

	"repro/internal/archive"
	"repro/internal/browser"
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
// touches: the browser's working storage, the network's packet/datagram
// pools, the TCP stacks' segment pool, and a per-site matcher index. One
// scratch serves one load at a time; reusing it across the sequential
// loads of a benchmark iteration or matrix cell removes per-load pool
// warmup from the hot path. Scratch contents never influence results —
// only where allocations come from — so reuse preserves byte-identical
// experiment artifacts.
type Scratch struct {
	browser  browser.Scratch
	pools    *nsim.PoolSet
	segments *tcpsim.SegmentPool
	loop     *sim.Loop

	matcherSite *archive.Site
	matcher     *match.Matcher
}

// NewScratch returns an empty scratch.
func NewScratch() *Scratch {
	return &Scratch{pools: &nsim.PoolSet{}, segments: &tcpsim.SegmentPool{}, loop: sim.NewLoop()}
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
// reuse is race-free even under a parallel Runner.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// Load runs one page load in a fresh network and returns the result. The
// simulation's bulk allocations (packets, datagrams, segments, browser
// working storage, the replay matcher index) come from spec.Scratch — or
// from a shared recycled scratch when nil — so sequential loads reuse one
// warmed set of pools instead of reallocating it per load.
func Load(spec LoadSpec) browser.Result {
	sc := spec.Scratch
	if sc == nil {
		sc = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(sc)
	}
	loop := sc.loop
	loop.Reset()
	network := nsim.NewNetworkPooled(loop, sc.pools)
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
		Segments:     sc.segments,
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
	b := browser.New(tcpsim.NewStackPool(st.App, sc.segments), replay.Resolver, AppAddr, opts)
	b.UseScratch(&sc.browser)
	var result browser.Result
	b.Load(spec.Page, func(r browser.Result) { result = r })
	loop.Run()
	return result
}

// PLTms runs Load and returns the page load time in milliseconds.
func PLTms(spec LoadSpec) float64 {
	return Load(spec).PLT.Milliseconds()
}
