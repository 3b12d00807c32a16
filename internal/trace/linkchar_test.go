package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestCorpusDeterministic: the corpus is a pure function of its seed — the
// property the linkchar experiment's golden rests on.
func TestCorpusDeterministic(t *testing.T) {
	render := func() string {
		traces, err := Corpus(42, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tr := range traces {
			b.WriteString(tr.Name())
			if err := tr.Format(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	if render() != render() {
		t.Fatal("corpus not deterministic for a fixed seed")
	}
	traces, _ := Corpus(42, 10_000)
	if len(traces) != 3 {
		t.Fatalf("corpus has %d traces, want 3", len(traces))
	}
	names := []string{traces[0].Name(), traces[1].Name(), traces[2].Name()}
	if names[0] != "lte" || names[1] != "5g" || names[2] != "wifi" {
		t.Fatalf("corpus names = %v", names)
	}
}

// maxGapMS returns the largest gap between consecutive opportunities in one
// pass, in milliseconds.
func maxGapMS(tr *Trace) int64 {
	var maxGap int64
	for i := 1; i < len(tr.opportunities); i++ {
		if g := int64((tr.opportunities[i] - tr.opportunities[i-1]) / sim.Millisecond); g > maxGap {
			maxGap = g
		}
	}
	return maxGap
}

// TestNR5GHasHardOutages: the 5G generator must produce at least one
// blockage — a gap of 100ms or more with zero delivery opportunities.
func TestNR5GHasHardOutages(t *testing.T) {
	tr, err := NR5G(sim.NewRand(7), 20_000_000, 120_000_000, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if g := maxGapMS(tr); g < 100 {
		t.Fatalf("largest gap %dms, want a >=100ms blockage outage", g)
	}
	if tr.MeanRate() < 10_000_000 {
		t.Fatalf("mean rate %.0f bps implausibly low for mmWave", tr.MeanRate())
	}
}

// TestLTEFadesAreSoft: LTE fades crawl but do not fully stall — gaps stay
// well short of a 5G blockage, while the rate still varies widely.
func TestLTEFadesAreSoft(t *testing.T) {
	tr, err := LTE(sim.NewRand(7), 2_000_000, 24_000_000, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if g := maxGapMS(tr); g >= 100 {
		t.Fatalf("largest gap %dms — LTE fades should crawl, not stall", g)
	}
	// A fade at 5% of a 2 Mbps floor still delivers a packet every ~120ms.
	if g := maxGapMS(tr); g < 20 {
		t.Fatalf("largest gap %dms — no fade visible", g)
	}
}

// TestWiFiBursts: the WiFi generator aggregates frames — some milliseconds
// carry multiple opportunities — and stalls during contention.
func TestWiFiBursts(t *testing.T) {
	tr, err := WiFi(sim.NewRand(7), 30_000_000, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	perMS := map[int64]int{}
	for _, o := range tr.opportunities {
		perMS[int64(o/sim.Millisecond)]++
	}
	maxBurst := 0
	for _, n := range perMS {
		if n > maxBurst {
			maxBurst = n
		}
	}
	if maxBurst < 2 {
		t.Fatal("no millisecond carries an aggregated burst")
	}
	if g := maxGapMS(tr); g < 5 {
		t.Fatalf("largest gap %dms — no contention stall visible", g)
	}
}

// TestLinkcharValidation pins generator argument validation.
func TestLinkcharValidation(t *testing.T) {
	if _, err := LTE(sim.NewRand(1), 0, 10, 100); err == nil {
		t.Error("LTE accepted zero min rate")
	}
	if _, err := NR5G(sim.NewRand(1), 10, 5, 100); err == nil {
		t.Error("NR5G accepted max < min")
	}
	if _, err := WiFi(sim.NewRand(1), 1_000_000, 0); err == nil {
		t.Error("WiFi accepted zero period")
	}
}
