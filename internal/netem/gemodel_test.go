package netem

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// geBitmap feeds n packets through a LossBox with the given model and seed
// and returns the delivery pattern: '1' = delivered, '.' = lost.
func geBitmap(model LossModel, seed uint64, n int) string {
	loop := sim.NewLoop()
	l := NewLossBoxModel(model, sim.NewRand(seed))
	var got []*Packet
	l.SetSink(collect(&got))
	var b strings.Builder
	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < n; i++ {
			before := len(got)
			l.Send(&Packet{Size: 100})
			if len(got) > before {
				b.WriteByte('1')
			} else {
				b.WriteByte('.')
			}
		}
	})
	loop.Run()
	return b.String()
}

// TestGilbertElliottGolden pins the exact loss pattern of the 2-state
// Markov model for a fixed seed — the gemodel analogue of the CoDel/PIE
// golden transcripts. Every packet in the Bad state is dropped, so losses
// appear in bursts whose run lengths follow the R=0.5 recovery probability.
func TestGilbertElliottGolden(t *testing.T) {
	got := geBitmap(NewGilbertElliott(0.15, 0.5), 0xfeed, 64)
	const want = "11111111111111111..111.......11.11.111.....111111.1111111111111."
	if got != want {
		t.Fatalf("gemodel pattern:\n got %s\nwant %s", got, want)
	}
}

// TestGilbertElliottDrawCount verifies the fixed-draw-count contract: the
// model consumes exactly two RNG draws per packet regardless of state or
// outcome, so a scripted model swap cannot desynchronize the stream.
func TestGilbertElliottDrawCount(t *testing.T) {
	const n = 257
	rng := sim.NewRand(42)
	m := NewGilbertElliott(0.3, 0.4)
	for i := 0; i < n; i++ {
		m.Drop(rng)
	}
	ref := sim.NewRand(42)
	for i := 0; i < 2*n; i++ {
		ref.Float64()
	}
	if got, want := rng.Float64(), ref.Float64(); got != want {
		t.Fatalf("RNG stream position diverged after %d packets: next draw %v, want %v", n, got, want)
	}
}

// TestLossModelSwapDeterminism verifies that a mid-stream scripted model
// swap yields the same post-swap pattern as starting the swapped-in model
// at the same RNG position — the property the ScenarioScript loss-model
// transition relies on.
func TestLossModelSwapDeterminism(t *testing.T) {
	run := func() string {
		loop := sim.NewLoop()
		l := NewLossBox(0.5, sim.NewRand(7))
		var got []*Packet
		l.SetSink(collect(&got))
		script := NewScenarioScript(loop)
		script.LossModelSwap(5*sim.Millisecond, l, NewGilbertElliott(0.2, 0.5))
		var b strings.Builder
		for i := 0; i < 40; i++ {
			at := sim.Time(i) * sim.Millisecond / 4
			loop.Schedule(at, func(sim.Time) {
				before := len(got)
				l.Send(&Packet{Size: 100})
				if len(got) > before {
					b.WriteByte('1')
				} else {
					b.WriteByte('.')
				}
			})
		}
		loop.Run()
		script.Finish(loop.Now())
		if tr := script.Transitions(); len(tr) != 1 || tr[0].Label != "loss-gemodel-p0.2-r0.5" {
			t.Fatalf("transitions = %+v", tr)
		}
		return b.String()
	}
	first := run()
	if second := run(); first != second {
		t.Fatalf("model swap not deterministic:\n%s\n%s", first, second)
	}
	const want = "1.1111....1111.1.......1.1111111111111.."
	if first != want {
		t.Fatalf("swap pattern:\n got %s\nwant %s", first, want)
	}
}

// TestGilbertElliottLongRunLossRate checks the classic model's stationary
// loss rate P/(P+R) over a long stream.
func TestGilbertElliottLongRunLossRate(t *testing.T) {
	const n = 200_000
	p, r := 0.1, 0.4
	rng := sim.NewRand(99)
	m := NewGilbertElliott(p, r)
	drops := 0
	for i := 0; i < n; i++ {
		if m.Drop(rng) {
			drops++
		}
	}
	want := p / (p + r) // stationary probability of Bad
	got := float64(drops) / n
	if got < want-0.01 || got > want+0.01 {
		t.Fatalf("long-run loss rate %.4f, want ~%.4f", got, want)
	}
}

// TestGilbertElliottValidation pins constructor validation and labels.
func TestGilbertElliottValidation(t *testing.T) {
	for _, bad := range [][2]float64{
		{-0.1, 0.5}, {1.1, 0.5}, {0.5, -0.1}, {0.5, 1.1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGilbertElliott(%v) did not panic", bad)
				}
			}()
			NewGilbertElliott(bad[0], bad[1])
		}()
	}
	if got := NewGilbertElliott(0.2, 0.5).String(); got != "gemodel-p0.2-r0.5" {
		t.Fatalf("label = %q", got)
	}
	if got := NewBernoulli(0.25).String(); got != "bernoulli-0.25" {
		t.Fatalf("bernoulli label = %q", got)
	}
}

// TestBernoulliPreservesLegacyDrawStream: the model refactor must keep the
// historical LossBox draw discipline exactly — one draw per packet when
// p > 0, zero draws when p == 0 — because every pre-existing artifact's
// downstream RNG state depends on it.
func TestBernoulliPreservesLegacyDrawStream(t *testing.T) {
	rng := sim.NewRand(11)
	ref := sim.NewRand(11)
	m := NewBernoulli(0.3)
	var got, want strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&got, "%t", m.Drop(rng))
		fmt.Fprintf(&want, "%t", ref.Float64() < 0.3)
	}
	if got.String() != want.String() {
		t.Fatal("Bernoulli draw stream diverged from legacy inline draw")
	}
	if rng.Float64() != ref.Float64() {
		t.Fatal("Bernoulli consumed a different number of draws than legacy code")
	}
	// p == 0 consumes no draws at all.
	zero := NewBernoulli(0)
	before := sim.NewRand(5)
	after := sim.NewRand(5)
	for i := 0; i < 10; i++ {
		if zero.Drop(after) {
			t.Fatal("Bernoulli(0) dropped a packet")
		}
	}
	if before.Float64() != after.Float64() {
		t.Fatal("Bernoulli(0) consumed RNG draws")
	}
}
