package main

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/netem"
)

// FuzzLossState holds -loss-state's parser to the loss chain it feeds.
// Five fuzzed floats joined by commas must parse exactly when
// netem.NewMarkov4State accepts them without panicking, and any fuzzed
// string the parser accepts must give values the chain accepts and that,
// formatted with %g, parse back to themselves.
//
// CI runs it for a bounded time:
//
//	go test -run '^$' -fuzz FuzzLossState -fuzztime 10s ./cmd/mm-link/
func FuzzLossState(f *testing.F) {
	f.Add("0.02,0.4,0.2,0.1,0.005", 0.02, 0.4, 0.2, 0.1, 0.005)
	f.Add(" 1, 0,0 ,1,0", 1.0, 0.0, 0.0, 1.0, 0.0)
	f.Add("0.5,0.6,0.6,0,0", 0.5, 0.6, 0.6, 0.0, 0.0)
	f.Add("0.6,0,0,0,0.6", 0.6, 0.0, 0.0, 0.0, 0.6)
	f.Add("0.01,0.4,0.2,0.1,0.005junk", -0.1, 0.4, 0.2, 0.1, 1.5)
	f.Add("0.01,0.4,0.2,0.1", math.Inf(1), 0.0, 0.0, 0.0, 0.0)
	f.Add("NaN,0,0,0,0", math.NaN(), 0.0, 0.0, 0.0, 0.0)
	f.Add("1e-3,0x1p-2,-0,0.3,0.25", 1e-3, 0.25, math.Copysign(0, -1), 0.3, 0.25)
	f.Fuzz(func(t *testing.T, s string, p13, p31, p32, p23, p14 float64) {
		vals := []float64{p13, p31, p32, p23, p14}
		joined := join(vals)
		_, err := parseLossState(joined)
		if ok := chainAccepts(vals); (err == nil) != ok {
			t.Fatalf("parseLossState(%q) error %v, NewMarkov4State accepts: %v", joined, err, ok)
		}

		p, err := parseLossState(s)
		if err != nil {
			return
		}
		if !chainAccepts(p) {
			t.Fatalf("parseLossState(%q) accepted %v, which NewMarkov4State refuses", s, p)
		}
		again, err := parseLossState(join(p))
		if err != nil {
			t.Fatalf("parseLossState(%q) accepted %v, whose %%g form %q it refuses: %v", s, p, join(p), err)
		}
		for i := range p {
			if math.Float64bits(again[i]) != math.Float64bits(p[i]) {
				t.Fatalf("parseLossState(%q) = %v, but its %%g form %q parses to %v", s, p, join(p), again)
			}
		}
	})
}

// join formats the values with %g, separated by commas.
func join(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%g", v)
	}
	return strings.Join(parts, ",")
}

// chainAccepts reports whether netem.NewMarkov4State builds a chain from
// the five values instead of panicking.
func chainAccepts(p []float64) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	netem.NewMarkov4State(p[0], p[1], p[2], p[3], p[4])
	return true
}
