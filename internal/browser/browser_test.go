package browser

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/nsim"
	"repro/internal/replayshell"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/trace"
	"repro/internal/webgen"
)

var appAddr = nsim.ParseAddr("100.64.0.2")

// loadOnce builds a full stack (browser -> shells -> replayshell) and loads
// the page once, returning the result.
func loadOnce(t *testing.T, page *webgen.Page, opts Options, shellList ...shells.Shell) Result {
	t.Helper()
	loop := sim.NewLoop()
	network := nsim.NewNetwork(loop)
	replay, err := replayshell.New(network, replayshell.Config{
		Site: webgen.Materialize(page), DNSLatency: sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := shells.Build(network, replay.NS, appAddr, shellList...)
	b := New(tcpsim.NewStack(st.App), replay.Resolver, appAddr, opts)
	var result Result
	got := false
	b.Load(page, func(r Result) { result = r; got = true })
	loop.Run()
	if !got {
		t.Fatal("page load never completed")
	}
	return result
}

func smallPage() *webgen.Page {
	return webgen.GeneratePage(sim.NewRand(5), webgen.Profile{
		Name: "www.small.com", Servers: 4, Resources: 12,
		HTMLSize: 20 << 10, MedianObject: 8 << 10, SigmaObject: 0.8,
		CPUPerKB: 50 * sim.Microsecond,
	})
}

func TestLoadCompletesAllResources(t *testing.T) {
	page := smallPage()
	r := loadOnce(t, page, DefaultOptions())
	if r.Resources != len(page.Resources) {
		t.Fatalf("completed %d resources, want %d", r.Resources, len(page.Resources))
	}
	if r.Errors != 0 {
		t.Fatalf("errors = %d: %+v", r.Errors, r.Timings)
	}
	if r.PLT <= 0 {
		t.Fatalf("PLT = %v", r.PLT)
	}
}

func TestAllResponsesMatched(t *testing.T) {
	page := smallPage()
	r := loadOnce(t, page, DefaultOptions())
	for _, tm := range r.Timings {
		if tm.Status != 200 {
			t.Fatalf("resource %s status %d", tm.URL, tm.Status)
		}
	}
	if r.Bytes != page.TotalBytes() {
		t.Fatalf("bytes %d, want %d", r.Bytes, page.TotalBytes())
	}
}

func TestDelayShellSlowsLoad(t *testing.T) {
	page := smallPage()
	fast := loadOnce(t, page, DefaultOptions())
	slow := loadOnce(t, page, DefaultOptions(), shells.NewDelayShell(100*sim.Millisecond))
	if slow.PLT <= fast.PLT+100*sim.Millisecond {
		t.Fatalf("delay shell: fast=%v slow=%v", fast.PLT, slow.PLT)
	}
}

func TestLinkShellBandwidthMatters(t *testing.T) {
	page := smallPage()
	up1, _ := trace.Constant(1_000_000, 2000)
	down1, _ := trace.Constant(1_000_000, 2000)
	up25, _ := trace.Constant(25_000_000, 2000)
	down25, _ := trace.Constant(25_000_000, 2000)
	slow := loadOnce(t, page, DefaultOptions(),
		shells.NewDelayShell(30*sim.Millisecond), shells.NewLinkShell(up1, down1))
	fast := loadOnce(t, page, DefaultOptions(),
		shells.NewDelayShell(30*sim.Millisecond), shells.NewLinkShell(up25, down25))
	if slow.PLT < 2*fast.PLT {
		t.Fatalf("1 Mbit/s PLT %v not much slower than 25 Mbit/s PLT %v", slow.PLT, fast.PLT)
	}
}

func TestDeterministicPLT(t *testing.T) {
	page := smallPage()
	a := loadOnce(t, page, DefaultOptions(), shells.NewDelayShell(20*sim.Millisecond))
	b := loadOnce(t, page, DefaultOptions(), shells.NewDelayShell(20*sim.Millisecond))
	if a.PLT != b.PLT {
		t.Fatalf("same stack PLTs differ: %v vs %v", a.PLT, b.PLT)
	}
}

func TestSingleServerModeWorks(t *testing.T) {
	page := webgen.GeneratePage(sim.NewRand(6), webgen.Profile{
		Name: "www.multi.com", Servers: 10, Resources: 40,
		HTMLSize: 40 << 10, MedianObject: 10 << 10, SigmaObject: 0.9,
		CPUPerKB: 50 * sim.Microsecond,
	})
	loop := sim.NewLoop()
	network := nsim.NewNetwork(loop)
	replay, err := replayshell.New(network, replayshell.Config{
		Site: webgen.Materialize(page), SingleServer: true, DNSLatency: sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Origins()) >= 10 {
		t.Fatalf("single-server mode has %d origins", len(replay.Origins()))
	}
	st := shells.Build(network, replay.NS, appAddr, shells.NewDelayShell(30*sim.Millisecond))
	b := New(tcpsim.NewStack(st.App), replay.Resolver, appAddr, DefaultOptions())
	var result Result
	b.Load(page, func(r Result) { result = r })
	loop.Run()
	if result.Resources != len(page.Resources) || result.Errors != 0 {
		t.Fatalf("single-server load: %d resources, %d errors", result.Resources, result.Errors)
	}
}

func TestMultiOriginFasterThanSingleAtHighBandwidth(t *testing.T) {
	// The paper's core claim (Table 2): at high link speeds the
	// single-server collapse distorts (slows) page loads, while at 1
	// Mbit/s the two are comparable.
	page := webgen.GeneratePage(sim.NewRand(7), webgen.Profile{
		Name: "www.big.com", Servers: 20, Resources: 80,
		HTMLSize: 80 << 10, MedianObject: 12 << 10, SigmaObject: 1.0,
		CPUPerKB: 50 * sim.Microsecond,
	})
	run := func(single bool, rate int64) sim.Time {
		loop := sim.NewLoop()
		network := nsim.NewNetwork(loop)
		replay, err := replayshell.New(network, replayshell.Config{
			Site: webgen.Materialize(page), SingleServer: single, DNSLatency: sim.Millisecond,
			RequestCPU: 10 * sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		up, _ := trace.Constant(rate, 2000)
		down, _ := trace.Constant(rate, 2000)
		st := shells.Build(network, replay.NS, appAddr,
			shells.NewDelayShell(30*sim.Millisecond), shells.NewLinkShell(up, down))
		b := New(tcpsim.NewStack(st.App), replay.Resolver, appAddr, DefaultOptions())
		var result Result
		b.Load(page, func(r Result) { result = r })
		loop.Run()
		if result.Errors != 0 || result.Resources != len(page.Resources) {
			t.Fatalf("load failed: %+v", result.Resources)
		}
		return result.PLT
	}
	// Collapsing to a single server removes per-origin DNS lookups and
	// connection setup and maximizes connection reuse, so single-server
	// replay is *faster* than faithful multi-origin replay — that bias is
	// exactly why the paper insists on preserving multi-origin structure.
	// Table 2 reports the (unsigned) percentage difference, which shrinks
	// at 1 Mbit/s where the link, not connection parallelism, dominates.
	multiFast := run(false, 25_000_000)
	singleFast := run(true, 25_000_000)
	if singleFast == multiFast {
		t.Fatalf("single-server ablation had no effect at 25 Mbit/s (%v)", multiFast)
	}
	multiSlow := run(false, 1_000_000)
	singleSlow := run(true, 1_000_000)
	rel := func(a, b sim.Time) float64 {
		d := float64(a-b) / float64(b)
		if d < 0 {
			return -d
		}
		return d
	}
	relSlow := rel(singleSlow, multiSlow)
	relFast := rel(singleFast, multiFast)
	if relFast < relSlow {
		t.Fatalf("distortion at 25 Mbit/s (%.1f%%) should exceed 1 Mbit/s (%.1f%%)",
			relFast*100, relSlow*100)
	}
}

func TestConnsPerHostLimitRespected(t *testing.T) {
	// With 1 conn per host, the load must still complete (serialized).
	page := smallPage()
	one := loadOnce(t, page, Options{ConnsPerHost: 1, CPUScale: 1})
	six := loadOnce(t, page, Options{ConnsPerHost: 6, CPUScale: 1})
	if one.Resources != len(page.Resources) || six.Resources != len(page.Resources) {
		t.Fatal("loads incomplete")
	}
	if one.PLT < six.PLT {
		t.Fatalf("1-conn load (%v) faster than 6-conn load (%v)", one.PLT, six.PLT)
	}
}

func TestTimingsOrdered(t *testing.T) {
	page := smallPage()
	r := loadOnce(t, page, DefaultOptions(), shells.NewDelayShell(10*sim.Millisecond))
	for _, tm := range r.Timings {
		if tm.Start < tm.Discovered || tm.Done < tm.Start {
			t.Fatalf("timing out of order: %+v", tm)
		}
	}
	// Root must be the first discovered.
	if r.Timings[0].Discovered != r.Start {
		t.Fatalf("root discovered at %v, start %v", r.Timings[0].Discovered, r.Start)
	}
}

func TestCPUScaleZeroFaster(t *testing.T) {
	page := webgen.GeneratePage(sim.NewRand(5), webgen.Profile{
		Name: "www.cpu.com", Servers: 3, Resources: 20,
		HTMLSize: 50 << 10, MedianObject: 10 << 10, SigmaObject: 0.8,
		CPUPerKB: 2 * sim.Millisecond, // deliberately heavy
	})
	heavy := loadOnce(t, page, Options{ConnsPerHost: 6, CPUScale: 1})
	light := loadOnce(t, page, Options{ConnsPerHost: 6, CPUScale: 0})
	if light.PLT >= heavy.PLT {
		t.Fatalf("CPUScale=0 (%v) not faster than 1 (%v)", light.PLT, heavy.PLT)
	}
}

func TestUnresolvableHostCountsError(t *testing.T) {
	page := smallPage()
	loop := sim.NewLoop()
	network := nsim.NewNetwork(loop)
	replay, err := replayshell.New(network, replayshell.Config{
		Site: webgen.Materialize(page), DNSLatency: sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage DNS for one host: the load must still complete, with errors.
	victim := page.Hosts()[1]
	replay.Resolver.Remove(victim)
	st := shells.Build(network, replay.NS, appAddr)
	b := New(tcpsim.NewStack(st.App), replay.Resolver, appAddr, DefaultOptions())
	var result Result
	got := false
	b.Load(page, func(r Result) { result = r; got = true })
	loop.Run()
	if !got {
		t.Fatal("load with broken DNS never completed")
	}
	if result.Errors == 0 {
		t.Fatal("broken DNS produced no errors")
	}
}

// TestUnresolvableParentStillCompletes: a resource whose host does not
// resolve, and which references children, must not wedge the load. The
// fetch errors and finishes like one whose connection died, so its
// children are still discovered: every resource is accounted for, and
// exactly the resources on the dead host error.
func TestUnresolvableParentStillCompletes(t *testing.T) {
	page := webgen.GeneratePage(sim.NewRand(1), webgen.DefaultProfile("www.dns.test", 6))
	root := page.Resources[0].Host
	victim := ""
	for i := 1; i < len(page.Resources) && victim == ""; i++ {
		p := page.Resources[i].Parent
		if h := page.Resources[p].Host; p > 0 && h != root {
			victim = h
		}
	}
	if victim == "" {
		t.Fatal("page has no parent resource off the root host")
	}
	onVictim := 0
	for _, r := range page.Resources {
		if r.Host == victim {
			onVictim++
		}
	}
	loop := sim.NewLoop()
	network := nsim.NewNetwork(loop)
	replay, err := replayshell.New(network, replayshell.Config{
		Site: webgen.Materialize(page), DNSLatency: sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	replay.Resolver.Remove(victim)
	st := shells.Build(network, replay.NS, appAddr)
	b := New(tcpsim.NewStack(st.App), replay.Resolver, appAddr, DefaultOptions())
	var result Result
	got := false
	b.Load(page, func(r Result) { result = r; got = true })
	loop.Run()
	if !got {
		t.Fatalf("load never completed with %s unresolvable", victim)
	}
	if result.Resources != len(page.Resources) || result.Errors != onVictim {
		t.Fatalf("load: %d resources, %d errors; want %d resources, %d errors (those on %s)",
			result.Resources, result.Errors, len(page.Resources), onVictim, victim)
	}
	for i, tm := range result.Timings {
		if wantOK := page.Resources[i].Host != victim; (tm.Status == 200) != wantOK {
			t.Errorf("resource %d (%s) status %d", i, tm.URL, tm.Status)
		}
	}
}

func TestMultiplexLoadCompletes(t *testing.T) {
	page := smallPage()
	r := loadOnce(t, page, MultiplexOptions(), shells.NewDelayShell(30*sim.Millisecond))
	if r.Resources != len(page.Resources) || r.Errors != 0 {
		t.Fatalf("multiplex load: %d resources, %d errors", r.Resources, r.Errors)
	}
	if r.Bytes != page.TotalBytes() {
		t.Fatalf("multiplex bytes %d, want %d", r.Bytes, page.TotalBytes())
	}
}

func TestMultiplexBeatsSerialOnHighRTT(t *testing.T) {
	// One connection with pipelined requests avoids per-request RTTs that
	// a single non-multiplexed connection pays.
	page := webgen.GeneratePage(sim.NewRand(31), webgen.Profile{
		Name: "www.mux.com", Servers: 1, Resources: 30,
		HTMLSize: 20 << 10, MedianObject: 4 << 10, SigmaObject: 0.5,
		CPUPerKB: 10 * sim.Microsecond,
	})
	serialOne := loadOnce(t, page, Options{ConnsPerHost: 1, CPUScale: 1},
		shells.NewDelayShell(100*sim.Millisecond))
	mux := loadOnce(t, page, MultiplexOptions(),
		shells.NewDelayShell(100*sim.Millisecond))
	if mux.PLT >= serialOne.PLT {
		t.Fatalf("multiplexed (%v) not faster than serial single-conn (%v)",
			mux.PLT, serialOne.PLT)
	}
}

func TestProgressiveDiscoveryBeforeParentCompletes(t *testing.T) {
	// A child at DiscoverAt 0.1 of a large parent must start fetching
	// before the parent finishes downloading over a slow link.
	page := &webgen.Page{
		Name: "www.prog.com",
		Origins: map[string]nsim.Addr{
			"www.prog.com": nsim.ParseAddr("1.2.3.4"),
		},
		Resources: []webgen.Resource{
			{Scheme: "http", Host: "www.prog.com", Port: 80, Path: "/",
				Size: 400 << 10, Type: webgen.HTML, Parent: -1},
			{Scheme: "http", Host: "www.prog.com", Port: 80, Path: "/early.css",
				Size: 2 << 10, Type: webgen.CSS, Parent: 0, DiscoverAt: 0.05},
		},
	}
	up, _ := trace.Constant(2_000_000, 2000)
	down, _ := trace.Constant(2_000_000, 2000)
	r := loadOnce(t, page, DefaultOptions(), shells.NewLinkShell(up, down))
	if r.Errors != 0 {
		t.Fatalf("errors: %d", r.Errors)
	}
	htmlDone := r.Timings[0].Done
	childStart := r.Timings[1].Start
	if childStart >= htmlDone {
		t.Fatalf("child started at %v, after parent finished at %v: discovery not progressive",
			childStart, htmlDone)
	}
}

// TestLoadSurvivesPermanentLinkDeath is the no-wedge contract: when the
// link dies mid-load and never recovers, every pooled connection
// eventually exhausts its retransmission ladder and dies — and the load
// must still complete, reporting the unanswered resources in Failed
// instead of stranding the queue behind a pool full of corpses.
func TestLoadSurvivesPermanentLinkDeath(t *testing.T) {
	page := smallPage()
	loop := sim.NewLoop()
	network := nsim.NewNetwork(loop)
	replay, err := replayshell.New(network, replayshell.Config{
		Site: webgen.Materialize(page), DNSLatency: sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	app := network.NewNamespace("app")
	app.AddAddress(appAddr)
	up := netem.NewScriptedGateBox(loop, nil)
	down := netem.NewScriptedGateBox(loop, nil)
	upPipe := netem.NewPipeline(netem.NewDelayBox(loop, 10*sim.Millisecond))
	upPipe.Append(up)
	downPipe := netem.NewPipeline(netem.NewDelayBox(loop, 10*sim.Millisecond))
	downPipe.Append(down)
	inEnd, outEnd := nsim.Connect(app, replay.NS, upPipe, downPipe)
	app.AddDefaultRoute(inEnd)
	replay.NS.AddRoute(appAddr, 32, outEnd)

	script := netem.NewScenarioScript(loop)
	script.LinkDown(60*sim.Millisecond, up)
	script.LinkDown(60*sim.Millisecond, down)
	// The link never comes back.

	opts := DefaultOptions()
	opts.ResponseTimeout = 30 * sim.Second
	b := New(tcpsim.NewStack(app), replay.Resolver, appAddr, opts)
	var result Result
	got := false
	b.Load(page, func(r Result) { result = r; got = true })
	loop.Run()
	script.Finish(loop.Now())

	if !got {
		t.Fatal("load wedged: completion callback never fired")
	}
	if result.Failed == 0 {
		t.Fatal("no resource reported failed across a permanent link death")
	}
	if result.Failed+result.Resources < len(page.Resources) {
		t.Fatalf("failed %d + fetched %d resources do not cover the page's %d",
			result.Failed, result.Resources, len(page.Resources))
	}
	status0 := 0
	for _, tm := range result.Timings {
		if tm.Status == 0 {
			status0++
		}
	}
	if status0 == 0 {
		t.Fatal("no timing entry carries Status 0 for a failed resource")
	}
}
