package core

import (
	"testing"
	"testing/quick"

	"repro/internal/browser"
	"repro/internal/experiments"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/webgen"
)

// Property: for any generated page, a record → replay round trip through
// the full pipeline (live web, MITM proxy, archive, replay servers,
// browser) delivers every byte with zero matcher misses (a miss is served
// as a 404, so every resource answering 200 means none missed).
func TestRecordReplayRoundTripProperty(t *testing.T) {
	f := func(seed uint64, serversRaw, resourcesRaw uint8) bool {
		servers := 1 + int(serversRaw%8)
		resources := 5 + int(resourcesRaw%25)
		p := webgen.GeneratePage(sim.NewRand(seed), webgen.Profile{
			Name: "www.prop.test", Servers: servers, Resources: resources,
			HTMLSize: 8 << 10, MedianObject: 3 << 10, SigmaObject: 0.7,
			CPUPerKB: 10 * sim.Microsecond, HTTPSShare: 0.25,
		})
		rec, err := NewSession().NewRecord(RecordConfig{Page: p})
		if err != nil {
			return false
		}
		site, liveRes := rec.Record()
		if liveRes.Errors != 0 || len(site.Exchanges) != len(p.Resources) {
			return false
		}
		res := experiments.Load(experiments.LoadSpec{
			Page: p, Site: site, DNSLatency: sim.Millisecond,
		})
		if res.Errors != 0 || res.Bytes != p.TotalBytes() {
			return false
		}
		for _, tm := range res.Timings {
			if tm.Status != 200 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: PLT is monotone in one-way path delay for a fixed page.
func TestPLTMonotoneInDelayProperty(t *testing.T) {
	p := webgen.GeneratePage(sim.NewRand(3), webgen.Profile{
		Name: "www.mono.test", Servers: 4, Resources: 15,
		HTMLSize: 15 << 10, MedianObject: 5 << 10, SigmaObject: 0.5,
		CPUPerKB: 20 * sim.Microsecond,
	})
	prev := sim.Time(-1)
	for _, d := range []sim.Time{0, 10 * sim.Millisecond, 40 * sim.Millisecond,
		100 * sim.Millisecond, 250 * sim.Millisecond} {
		plt := experiments.Load(experiments.LoadSpec{
			Page:       p,
			Shells:     []shells.Shell{shells.NewDelayShell(d)},
			DNSLatency: sim.Millisecond,
		}).PLT
		if plt <= prev {
			t.Fatalf("PLT not monotone: delay %v gives %v after %v", d, plt, prev)
		}
		prev = plt
	}
}

// Property: the single-server ablation never loses bytes, whatever the
// page shape.
func TestSingleServerCompletenessProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := webgen.GeneratePage(sim.NewRand(seed), webgen.Profile{
			Name: "www.ss.test", Servers: 1 + int(seed%10), Resources: 20,
			HTMLSize: 10 << 10, MedianObject: 4 << 10, SigmaObject: 0.6,
			CPUPerKB: 10 * sim.Microsecond, HTTPSShare: 0.3,
		})
		res := experiments.Load(experiments.LoadSpec{
			Page: p, SingleServer: true, DNSLatency: sim.Millisecond,
			RequestCPU: 2 * sim.Millisecond,
		})
		return res.Errors == 0 && res.Bytes == p.TotalBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: multiplexed and serial transports fetch identical bytes.
func TestTransportsAgreeOnBytesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := webgen.GeneratePage(sim.NewRand(seed), webgen.Profile{
			Name: "www.tx.test", Servers: 3, Resources: 18,
			HTMLSize: 12 << 10, MedianObject: 4 << 10, SigmaObject: 0.6,
			CPUPerKB: 10 * sim.Microsecond,
		})
		run := func(opts browser.Options) browser.Result {
			return experiments.Load(experiments.LoadSpec{
				Page: p, DNSLatency: sim.Millisecond, Browser: &opts,
			})
		}
		h1 := run(browser.DefaultOptions())
		mux := run(browser.MultiplexOptions())
		return h1.Errors == 0 && mux.Errors == 0 &&
			h1.Bytes == p.TotalBytes() && mux.Bytes == p.TotalBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
