package trace

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/sim"
)

// FuzzTraceParse feeds arbitrary bytes to Parse. It must never panic, and
// a trace it accepts must be one a TraceBox can loop on: a positive
// period, every opportunity inside [0, period], a Format/Parse round trip
// that keeps the opportunities, and a Cursor whose Next never returns an
// instant before the one asked for.
//
// CI runs it for a bounded time:
//
//	go test -run '^$' -fuzz FuzzTraceParse -fuzztime 10s ./internal/trace/
func FuzzTraceParse(f *testing.F) {
	for _, seed := range []string{
		"0\n5\n5\n12\n",
		"# header\n\n3\n  7  \n# tail\n",
		"abc\n",
		"",
		"-1\n",
		"9\n1\n5\n",
		"0\n3\n3\n8\n20\n",
		"0\n",
		"86400000\n",
		"86400001\n",
		"9223372036854775807\n",
		"0\n9300000000000000\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := Parse("fuzz", bytes.NewReader(raw))
		if err != nil {
			return
		}
		if tr.Period() <= 0 {
			t.Fatalf("period %v, want > 0", tr.Period())
		}
		for _, opp := range tr.opportunities {
			if opp < 0 || opp > tr.Period() {
				t.Fatalf("opportunity %v outside [0, %v]", opp, tr.Period())
			}
		}
		var buf bytes.Buffer
		if err := tr.Format(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Parse("fuzz", &buf)
		if err != nil {
			t.Fatalf("formatted trace refused: %v", err)
		}
		if !slices.Equal(back.opportunities, tr.opportunities) {
			t.Fatalf("round trip changed the opportunities: %v -> %v", tr.opportunities, back.opportunities)
		}
		for _, after := range []sim.Time{0, tr.Period(), 10 * tr.Period()} {
			if got := tr.Cursor().Next(after); got < after {
				t.Fatalf("Next(%v) = %v, before the instant asked for", after, got)
			}
		}
	})
}
