package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netem"
	"repro/internal/sim"
)

func TestParseBasic(t *testing.T) {
	tr, err := Parse("t", strings.NewReader("0\n5\n5\n12\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Period() != 12*sim.Millisecond {
		t.Fatalf("Period = %v, want 12ms", tr.Period())
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	tr, err := Parse("t", strings.NewReader("# header\n\n3\n  7  \n# tail\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("t", strings.NewReader("abc\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
	if _, err := Parse("t", strings.NewReader("")); err != ErrEmpty {
		t.Fatalf("empty trace error = %v, want ErrEmpty", err)
	}
	if _, err := New("t", []int64{-1}); err == nil {
		t.Fatal("negative timestamp accepted")
	}
	// Timestamps past one day would overflow virtual time (the first) or
	// wrap silently (the second). The error names the file's line.
	for _, in := range []string{"9223372036854775807\n", "0\n# c\n\n9300000000000000\n"} {
		_, err := Parse("huge", strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "huge") || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", strings.Count(in, "\n"))) {
			t.Errorf("Parse(%q) = %v, want an error naming the trace and the last line", in, err)
		}
	}
	if _, err := New("t", []int64{24 * 60 * 60 * 1000}); err != nil {
		t.Fatalf("a one-day timestamp refused: %v", err)
	}
}

func TestNewSortsInput(t *testing.T) {
	tr, err := New("t", []int64{9, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Cursor()
	if got := c.Next(0); got != 1*sim.Millisecond {
		t.Fatalf("first opp = %v, want 1ms", got)
	}
}

func TestRoundTripFormatParse(t *testing.T) {
	orig, err := New("t", []int64{0, 3, 3, 8, 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Format(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse("t2", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() || back.Period() != orig.Period() {
		t.Fatalf("round trip mismatch: %d/%v vs %d/%v",
			back.Len(), back.Period(), orig.Len(), orig.Period())
	}
}

func TestCursorLooping(t *testing.T) {
	tr, err := New("t", []int64{10, 20}) // period 20ms
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Cursor()
	want := []sim.Time{
		10 * sim.Millisecond, 20 * sim.Millisecond,
		30 * sim.Millisecond, 40 * sim.Millisecond, // second pass offset by 20ms
		50 * sim.Millisecond,
	}
	after := sim.Time(0)
	for i, w := range want {
		got := c.Next(after)
		if got != w {
			t.Fatalf("opp %d = %v, want %v", i, got, w)
		}
		after = got
	}
}

func TestCursorSkipsElapsed(t *testing.T) {
	tr, err := New("t", []int64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Cursor()
	got := c.Next(27 * sim.Millisecond)
	if got <= 27*sim.Millisecond {
		t.Fatalf("Next returned past opportunity %v", got)
	}
	// Period 10ms: passes at 5,10,15,20,25,30 — first after 27 is 30.
	if got != 30*sim.Millisecond {
		t.Fatalf("Next(27ms) = %v, want 30ms", got)
	}
}

func TestCursorFarFuture(t *testing.T) {
	tr, err := New("t", []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Cursor()
	// A one-opportunity trace with period 1ms: opportunities every 1ms.
	got := c.Next(1_000_000 * sim.Millisecond)
	if got != 1_000_001*sim.Millisecond {
		t.Fatalf("far-future Next = %v, want 1000001ms", got)
	}
}

// Property: chained Next calls are non-decreasing (same-timestamp
// opportunities are legal — that is how high-rate traces deliver several
// packets per millisecond), and the cursor advances across passes.
func TestCursorMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		ms := make([]int64, 0, len(raw))
		for _, v := range raw {
			ms = append(ms, int64(v%1000))
		}
		tr, err := New("t", ms)
		if err != nil {
			return false
		}
		c := tr.Cursor()
		prev := sim.Time(0)
		for i := 0; i < 200; i++ {
			next := c.Next(prev)
			if next < prev {
				return false
			}
			prev = next
		}
		// 200 consumed opportunities must have advanced at least
		// floor(199/len) full passes.
		minPasses := sim.Time((200 - 1) / len(ms))
		return prev >= minPasses*tr.Period()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCursorSameTimestampBatch(t *testing.T) {
	// Three opportunities in the same millisecond must be consumable at
	// the same virtual time — one packet each.
	tr, err := New("t", []int64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Cursor()
	for i := 0; i < 3; i++ {
		if got := c.Next(5 * sim.Millisecond); got != 5*sim.Millisecond {
			t.Fatalf("opportunity %d at %v, want 5ms", i, got)
		}
	}
	// Fourth call rolls into the next pass.
	if got := c.Next(5 * sim.Millisecond); got <= 5*sim.Millisecond {
		t.Fatalf("fourth opportunity at %v, want later pass", got)
	}
}

func TestConstantRateAccuracy(t *testing.T) {
	for _, tc := range []struct {
		bps int64
	}{
		{1_000_000}, {14_000_000}, {25_000_000}, {1_000_000_000},
	} {
		tr, err := Constant(tc.bps, 1000)
		if err != nil {
			t.Fatal(err)
		}
		got := tr.MeanRate()
		rel := math.Abs(got-float64(tc.bps)) / float64(tc.bps)
		if rel > 0.02 {
			t.Errorf("Constant(%d): mean rate %v off by %.1f%%", tc.bps, got, rel*100)
		}
	}
}

func TestConstantOnePacketPer12ms(t *testing.T) {
	// 1 Mbit/s = 1500*8 bits / 12 ms exactly.
	tr, err := Constant(1_000_000, 120)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 10 {
		t.Fatalf("1 Mbit/s over 120ms: %d opportunities, want 10", tr.Len())
	}
}

func TestConstantInvalid(t *testing.T) {
	if _, err := Constant(0, 100); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Constant(1000, 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestConstantVeryLowRate(t *testing.T) {
	// Below one packet per period: must still produce a usable trace.
	tr, err := Constant(1000, 100) // 1 kbit/s
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("low-rate trace has no opportunities")
	}
}

func TestCellularBounds(t *testing.T) {
	rng := sim.NewRand(42)
	tr, err := Cellular(rng, 2_000_000, 20_000_000, 100, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	mean := tr.MeanRate()
	if mean < 1_000_000 || mean > 25_000_000 {
		t.Fatalf("cellular mean rate %v far outside configured band", mean)
	}
}

func TestCellularDeterministic(t *testing.T) {
	a, _ := Cellular(sim.NewRand(7), 1_000_000, 10_000_000, 50, 5000)
	b, _ := Cellular(sim.NewRand(7), 1_000_000, 10_000_000, 50, 5000)
	if a.Len() != b.Len() || a.Period() != b.Period() {
		t.Fatal("same-seed cellular traces differ")
	}
}

func TestCellularInvalid(t *testing.T) {
	rng := sim.NewRand(1)
	if _, err := Cellular(rng, 0, 10, 10, 100); err == nil {
		t.Fatal("zero min rate accepted")
	}
	if _, err := Cellular(rng, 10, 5, 10, 100); err == nil {
		t.Fatal("max < min accepted")
	}
	if _, err := Cellular(rng, 1, 2, 100, 50); err == nil {
		t.Fatal("period < step accepted")
	}
}

func TestTraceDrivesTraceBox(t *testing.T) {
	// End-to-end: a 12 Mbit/s constant trace drives a TraceBox; 10 packets
	// should take ~10 opportunities at 1/ms.
	tr, err := Constant(12_000_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	loop := sim.NewLoop()
	tb := netem.NewTraceBox(loop, tr.Cursor(), nil)
	var last sim.Time
	n := 0
	tb.SetSink(func(*netem.Packet) { last = loop.Now(); n++ })
	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < 10; i++ {
			tb.Send(&netem.Packet{Size: netem.MTU})
		}
	})
	loop.Run()
	if n != 10 {
		t.Fatalf("delivered %d/10", n)
	}
	if last < 9*sim.Millisecond || last > 12*sim.Millisecond {
		t.Fatalf("last delivery at %v, want ~10ms", last)
	}
}

func TestMeanRateName(t *testing.T) {
	tr, _ := Constant(5_000_000, 500)
	if tr.Name() == "" {
		t.Fatal("constant trace has empty name")
	}
	if tr.MeanRate() <= 0 {
		t.Fatal("MeanRate <= 0")
	}
}

// TestGeneratorsRefuseOversizedTraces holds every generator to
// MaxOpportunities at its largest rate: a rate that yields exactly the cap
// over the period is generated, one opportunity more is refused before
// anything is built.
func TestGeneratorsRefuseOversizedTraces(t *testing.T) {
	// bitsPerPacket bits per opportunity and a 1000 ms period: the rate
	// below yields exactly n opportunities.
	rateFor := func(n int64) int64 { return n * bitsPerPacket }
	cases := []struct {
		name string
		gen  func(rate int64) (*Trace, error)
	}{
		{"constant", func(rate int64) (*Trace, error) { return Constant(rate, 1000) }},
		{"cellular", func(rate int64) (*Trace, error) {
			return Cellular(sim.NewRand(1), rate/2, rate, 100, 1000)
		}},
		{"lte", func(rate int64) (*Trace, error) { return LTE(sim.NewRand(1), rate/2, rate, 1000) }},
		{"5g", func(rate int64) (*Trace, error) { return NR5G(sim.NewRand(1), rate/2, rate, 1000) }},
		{"wifi", func(rate int64) (*Trace, error) { return WiFi(sim.NewRand(1), rate, 1000) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := tc.gen(rateFor(MaxOpportunities))
			if err != nil {
				t.Fatalf("at the cap: %v", err)
			}
			if tr.Len() > MaxOpportunities {
				t.Fatalf("at the cap: %d opportunities, more than %d", tr.Len(), MaxOpportunities)
			}
			if _, err := tc.gen(rateFor(MaxOpportunities + 1)); err == nil {
				t.Fatal("one opportunity past the cap accepted")
			}
			if _, err := tc.gen(1e12); err == nil {
				t.Fatal("a 1 Tbit/s trace accepted")
			}
		})
	}
}
