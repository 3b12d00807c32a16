package shells

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/nsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

var (
	appAddr   = nsim.ParseAddr("100.64.0.1")
	worldAddr = nsim.ParseAddr("93.184.216.34")
)

// rtt measures the app→world→app round trip of a single datagram through a
// stack of shells.
func rtt(t *testing.T, shellList ...Shell) sim.Time {
	t.Helper()
	loop := sim.NewLoop()
	net := nsim.NewNetwork(loop)
	world := net.NewNamespace("world")
	world.AddAddress(worldAddr)
	st := Build(net, world, appAddr, shellList...)

	// Echo server in the world namespace.
	world.Bind(nsim.AddrPort{Addr: worldAddr, Port: 7}, func(dg *nsim.Datagram) {
		world.Send(&nsim.Datagram{
			Src: dg.Dst, Dst: dg.Src, Size: dg.Size,
		})
	})
	var done sim.Time = -1
	st.App.Bind(nsim.AddrPort{Addr: appAddr, Port: 7}, func(*nsim.Datagram) {
		done = loop.Now()
	})
	loop.Schedule(0, func(sim.Time) {
		if err := st.App.Send(&nsim.Datagram{
			Src:  nsim.AddrPort{Addr: appAddr, Port: 7},
			Dst:  nsim.AddrPort{Addr: worldAddr, Port: 7},
			Size: netem.MTU,
		}); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	loop.Run()
	if done < 0 {
		t.Fatal("echo never returned")
	}
	return done
}

func TestNoShellsZeroRTT(t *testing.T) {
	if got := rtt(t); got != 0 {
		t.Fatalf("bare stack RTT = %v, want 0", got)
	}
}

func TestDelayShellAddsRTT(t *testing.T) {
	if got := rtt(t, NewDelayShell(30*sim.Millisecond)); got != 60*sim.Millisecond {
		t.Fatalf("RTT = %v, want 60ms", got)
	}
}

func TestNestedDelayShellsAdd(t *testing.T) {
	got := rtt(t, NewDelayShell(10*sim.Millisecond), NewDelayShell(15*sim.Millisecond))
	if got != 50*sim.Millisecond {
		t.Fatalf("RTT = %v, want 50ms (2*(10+15))", got)
	}
}

func TestDelayShellZero(t *testing.T) {
	if got := rtt(t, NewDelayShell(0)); got != 0 {
		t.Fatalf("RTT = %v, want 0 for DelayShell 0ms", got)
	}
}

func TestLinkShellPacing(t *testing.T) {
	// 12 Mbit/s constant trace: one delivery opportunity per millisecond
	// per direction. A burst of packets must be paced out at 1/ms.
	up, err := trace.Constant(12_000_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	down, _ := trace.Constant(12_000_000, 1000)

	loop := sim.NewLoop()
	net := nsim.NewNetwork(loop)
	world := net.NewNamespace("world")
	world.AddAddress(worldAddr)
	st := Build(net, world, appAddr, NewLinkShell(up, down))
	var at []sim.Time
	world.Bind(nsim.AddrPort{Addr: worldAddr, Port: 7}, func(*nsim.Datagram) {
		at = append(at, loop.Now())
	})
	// Send off the millisecond grid so each packet waits for the next
	// opportunity.
	loop.Schedule(200*sim.Microsecond, func(sim.Time) {
		for i := 0; i < 3; i++ {
			st.App.Send(&nsim.Datagram{
				Src:  nsim.AddrPort{Addr: appAddr, Port: 7},
				Dst:  nsim.AddrPort{Addr: worldAddr, Port: 7},
				Size: netem.MTU,
			})
		}
	})
	loop.Run()
	want := []sim.Time{sim.Millisecond, 2 * sim.Millisecond, 3 * sim.Millisecond}
	if len(at) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(at))
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("deliveries at %v, want %v", at, want)
		}
	}
}

func TestDelayPlusLinkCompose(t *testing.T) {
	up, _ := trace.Constant(12_000_000, 1000)
	down, _ := trace.Constant(12_000_000, 1000)
	got := rtt(t, NewDelayShell(50*sim.Millisecond), NewLinkShell(up, down))
	if got < 100*sim.Millisecond || got > 105*sim.Millisecond {
		t.Fatalf("RTT = %v, want ~100-104ms", got)
	}
}

func TestLossShellDropsEverything(t *testing.T) {
	loop := sim.NewLoop()
	net := nsim.NewNetwork(loop)
	world := net.NewNamespace("world")
	world.AddAddress(worldAddr)
	st := Build(net, world, appAddr, &LossShell{UpProb: 1, DownProb: 1, Seed: 1})
	delivered := false
	world.Bind(nsim.AddrPort{Addr: worldAddr, Port: 7}, func(*nsim.Datagram) { delivered = true })
	st.App.Send(&nsim.Datagram{
		Src: nsim.AddrPort{Addr: appAddr, Port: 1},
		Dst: nsim.AddrPort{Addr: worldAddr, Port: 7}, Size: 100,
	})
	loop.Run()
	if delivered {
		t.Fatal("100% loss shell delivered a packet")
	}
}

func TestShellNames(t *testing.T) {
	loop := sim.NewLoop()
	net := nsim.NewNetwork(loop)
	world := net.NewNamespace("world")
	world.AddAddress(worldAddr)
	up, _ := trace.Constant(1_000_000, 1000)
	down, _ := trace.Constant(1_000_000, 1000)
	st := Build(net, world, appAddr,
		NewDelayShell(30*sim.Millisecond), NewLinkShell(up, down))
	names := st.Shells()
	if len(names) != 2 || names[0] != "delay-30ms" {
		t.Fatalf("Shells = %v", names)
	}

	// fq_codel links get distinct cell coordinates: the spec's bucket count
	// and quantum are part of the label, so grids that sweep them derive
	// distinct seeds per cell.
	fq := NewLinkShell(up, down)
	fq.UpQueue = netem.QdiscSpec{Kind: netem.QdiscFQCoDel, Packets: 600, Flows: 64, Quantum: 300}
	fq.DownQueue = fq.UpQueue
	if got, want := fq.Name(), "link-constant-1000000bps-constant-1000000bps+fq_codel-600p-f64-q300"; got != want {
		t.Fatalf("fq link name = %q, want %q", got, want)
	}
	fq.UpQueue.ECN = true
	fq.UpQueue.Flows, fq.UpQueue.Quantum = 0, 0
	fq.DownQueue = fq.UpQueue
	if got, want := fq.Name(), "link-constant-1000000bps-constant-1000000bps+fq_codel-ecn-600p"; got != want {
		t.Fatalf("fq-ecn link name = %q, want %q", got, want)
	}
}

func TestTwoStacksIsolated(t *testing.T) {
	// Two concurrent stacks in one network: traffic in one must never
	// appear in the other (the paper's isolation claim).
	loop := sim.NewLoop()
	net := nsim.NewNetwork(loop)
	worldA := net.NewNamespace("worldA")
	worldB := net.NewNamespace("worldB")
	addr := worldAddr // same address in both worlds: still isolated
	worldA.AddAddress(addr)
	worldB.AddAddress(addr)
	stA := Build(net, worldA, appAddr, NewDelayShell(10*sim.Millisecond))
	stB := Build(net, worldB, appAddr, NewDelayShell(10*sim.Millisecond))

	var gotA, gotB int
	worldA.Bind(nsim.AddrPort{Addr: addr, Port: 7}, func(*nsim.Datagram) { gotA++ })
	worldB.Bind(nsim.AddrPort{Addr: addr, Port: 7}, func(*nsim.Datagram) { gotB++ })
	stA.App.Send(&nsim.Datagram{
		Src: nsim.AddrPort{Addr: appAddr, Port: 1},
		Dst: nsim.AddrPort{Addr: addr, Port: 7}, Size: 10,
	})
	loop.Run()
	if gotA != 1 || gotB != 0 {
		t.Fatalf("isolation broken: A=%d B=%d, want 1,0", gotA, gotB)
	}
	_ = stB
}

func TestLinkShellQueueLimit(t *testing.T) {
	// 1 Mbit/s with a 2-packet queue: a 10-packet burst must drop most.
	up, _ := trace.Constant(1_000_000, 1000)
	down, _ := trace.Constant(1_000_000, 1000)
	sh := NewLinkShell(up, down)
	sh.UpQueue = netem.QdiscSpec{Packets: 2}
	sh.DownQueue = sh.UpQueue

	loop := sim.NewLoop()
	net := nsim.NewNetwork(loop)
	world := net.NewNamespace("world")
	world.AddAddress(worldAddr)
	st := Build(net, world, appAddr, sh)
	got := 0
	world.Bind(nsim.AddrPort{Addr: worldAddr, Port: 7}, func(*nsim.Datagram) { got++ })
	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < 10; i++ {
			st.App.Send(&nsim.Datagram{
				Src: nsim.AddrPort{Addr: appAddr, Port: 1},
				Dst: nsim.AddrPort{Addr: worldAddr, Port: 7}, Size: netem.MTU,
			})
		}
	})
	loop.Run()
	if got > 3 {
		t.Fatalf("delivered %d of 10 with 2-packet queue, want <=3", got)
	}
}

// gateShell is an intermittent link (Mahimahi's mm-onoff) as a shell: both
// directions are scripted gates, which the test turns off and on.
type gateShell struct{ up, down *netem.GateBox }

func (g *gateShell) Name() string { return "gate" }

func (g *gateShell) Boxes(loop *sim.Loop) (netem.Box, netem.Box) {
	g.up, g.down = netem.NewScriptedGateBox(loop, nil), netem.NewScriptedGateBox(loop, nil)
	return g.up, g.down
}

func TestGateShellStallsThenDelivers(t *testing.T) {
	loop := sim.NewLoop()
	net := nsim.NewNetwork(loop)
	world := net.NewNamespace("world")
	world.AddAddress(worldAddr)
	sh := &gateShell{}
	st := Build(net, world, appAddr, sh)
	var at sim.Time
	world.Bind(nsim.AddrPort{Addr: worldAddr, Port: 7}, func(*nsim.Datagram) { at = loop.Now() })
	// The link is off during [50,150): a send at 70ms is held until 150ms.
	loop.Schedule(50*sim.Millisecond, func(sim.Time) {
		sh.up.SetOn(false, netem.DrainHold)
		sh.down.SetOn(false, netem.DrainHold)
	})
	loop.Schedule(150*sim.Millisecond, func(sim.Time) {
		sh.up.SetOn(true, netem.DrainHold)
		sh.down.SetOn(true, netem.DrainHold)
	})
	loop.Schedule(70*sim.Millisecond, func(sim.Time) {
		st.App.Send(&nsim.Datagram{
			Src: nsim.AddrPort{Addr: appAddr, Port: 7},
			Dst: nsim.AddrPort{Addr: worldAddr, Port: 7}, Size: netem.MTU,
		})
	})
	loop.RunUntil(400 * sim.Millisecond)
	if at != 150*sim.Millisecond {
		t.Fatalf("delivery at %v, want 150ms (end of outage)", at)
	}
}

// TestImpairShellName pins the label: only active arms appear.
func TestImpairShellName(t *testing.T) {
	sh := &ImpairShell{ReorderProb: 0.1, ReorderCorr: 0.25, CorruptProb: 0.02, Seed: 1}
	if got, want := sh.Name(), "impair-r0.1/0.25-c0.02/0"; got != want {
		t.Fatalf("name = %q, want %q", got, want)
	}
	full := &ImpairShell{
		ReorderProb: 0.1, DuplicateProb: 0.05, CorruptProb: 0.02,
		FourState: []float64{0.2, 0.5, 0.2, 0.3, 0.1}, Seed: 1,
	}
	if got, want := full.Name(), "impair-r0.1/0-d0.05/0-c0.02/0-4s[0.2 0.5 0.2 0.3 0.1]"; got != want {
		t.Fatalf("name = %q, want %q", got, want)
	}
	if got, want := (&ImpairShell{}).Name(), "impair"; got != want {
		t.Fatalf("empty name = %q, want %q", got, want)
	}
}

// TestImpairShellInertIsWire: an all-zero ImpairShell is an empty pipeline —
// a pure wire that adds no delay and touches no RNG, so stacking it onto an
// existing scenario cannot move any number.
func TestImpairShellInertIsWire(t *testing.T) {
	if got := rtt(t, &ImpairShell{Seed: 9}); got != 0 {
		t.Fatalf("inert impair shell RTT = %v, want 0", got)
	}
}

// TestImpairShellDuplicates: DuplicateProb=1 doubles every packet in both
// directions — one send yields two world arrivals and four app arrivals
// (each world copy is echoed, each echo duplicated on the way down).
func TestImpairShellDuplicates(t *testing.T) {
	loop := sim.NewLoop()
	net := nsim.NewNetwork(loop)
	world := net.NewNamespace("world")
	world.AddAddress(worldAddr)
	st := Build(net, world, appAddr, &ImpairShell{DuplicateProb: 1, Seed: 5})
	worldGot, appGot := 0, 0
	world.Bind(nsim.AddrPort{Addr: worldAddr, Port: 7}, func(dg *nsim.Datagram) {
		worldGot++
		world.Send(&nsim.Datagram{Src: dg.Dst, Dst: dg.Src, Size: dg.Size})
	})
	st.App.Bind(nsim.AddrPort{Addr: appAddr, Port: 7}, func(*nsim.Datagram) { appGot++ })
	st.App.Send(&nsim.Datagram{
		Src: nsim.AddrPort{Addr: appAddr, Port: 7},
		Dst: nsim.AddrPort{Addr: worldAddr, Port: 7}, Size: 100,
	})
	loop.Run()
	if worldGot != 2 || appGot != 4 {
		t.Fatalf("world=%d app=%d, want 2,4", worldGot, appGot)
	}
}

// TestImpairShellCorruptFlagReachesReceiver: the Corrupt flag set by the
// shell's CorruptBox must survive the netem→nsim boundary so transports can
// model checksum failure.
func TestImpairShellCorruptFlagReachesReceiver(t *testing.T) {
	loop := sim.NewLoop()
	net := nsim.NewNetwork(loop)
	world := net.NewNamespace("world")
	world.AddAddress(worldAddr)
	st := Build(net, world, appAddr, &ImpairShell{CorruptProb: 1, Seed: 5})
	corrupt := 0
	world.Bind(nsim.AddrPort{Addr: worldAddr, Port: 7}, func(dg *nsim.Datagram) {
		if dg.Corrupt {
			corrupt++
		}
	})
	st.App.Send(&nsim.Datagram{
		Src: nsim.AddrPort{Addr: appAddr, Port: 7},
		Dst: nsim.AddrPort{Addr: worldAddr, Port: 7}, Size: 100,
	})
	loop.Run()
	if corrupt != 1 {
		t.Fatalf("corrupt arrivals = %d, want 1", corrupt)
	}
}

// TestImpairShellFourStateLoss: the 4-state arm with P14=1 alternates
// isolated losses (.1.1...): of 10 packets sent, exactly 5 arrive.
func TestImpairShellFourStateLoss(t *testing.T) {
	loop := sim.NewLoop()
	net := nsim.NewNetwork(loop)
	world := net.NewNamespace("world")
	world.AddAddress(worldAddr)
	st := Build(net, world, appAddr, &ImpairShell{FourState: []float64{0, 0, 0, 0, 1}, Seed: 5})
	got := 0
	world.Bind(nsim.AddrPort{Addr: worldAddr, Port: 7}, func(*nsim.Datagram) { got++ })
	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < 10; i++ {
			st.App.Send(&nsim.Datagram{
				Src: nsim.AddrPort{Addr: appAddr, Port: 7},
				Dst: nsim.AddrPort{Addr: worldAddr, Port: 7}, Size: 100,
			})
		}
	})
	loop.Run()
	if got != 5 {
		t.Fatalf("delivered %d of 10 under alternating 4-state loss, want 5", got)
	}
}
