package core

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/webgen"
)

func page(seed uint64) *webgen.Page {
	return webgen.GeneratePage(sim.NewRand(seed), webgen.Profile{
		Name: "www.core.com", Servers: 5, Resources: 18,
		HTMLSize: 25 << 10, MedianObject: 8 << 10, SigmaObject: 0.8,
		CPUPerKB: 50 * sim.Microsecond,
	})
}

func TestReplayLoad(t *testing.T) {
	p := page(1)
	res := experiments.Load(experiments.LoadSpec{
		Page:       p,
		Shells:     []shells.Shell{shells.NewDelayShell(20 * sim.Millisecond)},
		DNSLatency: sim.Millisecond,
	})
	if res.Errors != 0 || res.Resources != len(p.Resources) {
		t.Fatalf("load: errors=%d resources=%d want %d", res.Errors, res.Resources, len(p.Resources))
	}
	if res.PLT < 40*sim.Millisecond {
		t.Fatalf("PLT %v below handshake floor", res.PLT)
	}
}

func TestRecordRequiresPage(t *testing.T) {
	if _, err := NewSession().NewRecord(RecordConfig{}); err == nil {
		t.Fatal("nil page accepted for record")
	}
}

func TestRecordThenReplayViaAPI(t *testing.T) {
	p := page(3)
	rec, err := NewSession().NewRecord(RecordConfig{
		Page:   p,
		Shells: []shells.Shell{shells.NewDelayShell(10 * sim.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	site, liveRes := rec.Record()
	if liveRes.Errors != 0 {
		t.Fatalf("record load errors: %d", liveRes.Errors)
	}
	if len(site.Exchanges) != len(p.Resources) {
		t.Fatalf("recorded %d exchanges, want %d", len(site.Exchanges), len(p.Resources))
	}

	res := experiments.Load(experiments.LoadSpec{
		Page: p, Site: site,
		Shells:     []shells.Shell{shells.NewDelayShell(10 * sim.Millisecond)},
		DNSLatency: sim.Millisecond,
	})
	if res.Errors != 0 || res.Bytes != p.TotalBytes() {
		t.Fatalf("replay: errors=%d bytes=%d want %d", res.Errors, res.Bytes, p.TotalBytes())
	}
}

func TestReplayDeterministicAcrossSessions(t *testing.T) {
	run := func() sim.Time {
		return experiments.Load(experiments.LoadSpec{
			Page:       page(4),
			DNSLatency: sim.Millisecond,
		}).PLT
	}
	if run() != run() {
		t.Fatal("identical sessions produced different PLTs")
	}
}
