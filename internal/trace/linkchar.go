package trace

import (
	"fmt"

	"repro/internal/sim"
)

// This file holds the link-character corpus: recorded-style traces in the
// mold of the LTE/WiFi captures shipped with Mahimahi, but synthesized
// deterministically from a seed so experiments can sweep link character ×
// loss process × qdisc without shipping megabytes of capture files. Each
// generator models the burstiness and outage structure of one radio
// technology; all of them emit the same on-disk format as Parse/Format, so
// a generated trace and a recorded one are interchangeable everywhere a
// *Trace is accepted.

// LTE synthesizes a cellular trace with the signature of Mahimahi's
// Verizon-LTE captures: a mean-reverting rate walk between minRate and
// maxRate punctuated by deep fades — handovers or signal loss during which
// the link crawls at ~5% of its mean for hundreds of milliseconds, then
// recovers. Fades are where self-inflicted queueing delay explodes, which
// is exactly the regime the bufferbloat experiments probe.
func LTE(rng *sim.Rand, minRate, maxRate int64, periodMS int) (*Trace, error) {
	rate, err := walk(rng, minRate, maxRate, 0.3, 0.25)
	if err != nil {
		return nil, err
	}
	fadeLeft := 0 // remaining fade steps
	return synthesize("lte", maxRate, 20, periodMS, func() float64 {
		r := rate()
		if fadeLeft > 0 {
			fadeLeft--
			return r * 0.05
		}
		if rng.Float64() < 0.02 {
			// Enter a fade lasting 200–600 ms.
			fadeLeft = 10 + int(rng.Float64()*20)
		}
		return r
	})
}

// NR5G synthesizes a millimeter-wave 5G trace: very high rates with hard
// blockage outages. mmWave links deliver an order of magnitude more than
// LTE while line-of-sight holds, then drop to zero for 100–500 ms when the
// path is blocked — an outage structure (complete stall, abrupt recovery)
// that stresses RTO machinery rather than queue build-up.
func NR5G(rng *sim.Rand, minRate, maxRate int64, periodMS int) (*Trace, error) {
	rate, err := walk(rng, minRate, maxRate, 0.4, 0.3)
	if err != nil {
		return nil, err
	}
	blockLeft := 0
	return synthesize("5g", maxRate, 10, periodMS, func() float64 {
		r := rate()
		if blockLeft > 0 {
			blockLeft--
			return 0 // total blockage: no opportunities at all
		}
		if rng.Float64() < 0.015 {
			// Blockage outage lasting 100–500 ms.
			blockLeft = 10 + int(rng.Float64()*40)
		}
		return r
	})
}

// WiFi synthesizes an 802.11 trace: frame-aggregated service bursts
// separated by contention stalls. The channel alternates between an "own
// the airtime" state delivering aggregated bursts (several packets in the
// same millisecond) and a backoff state delivering nothing while other
// stations transmit — fine-grained burstiness rather than LTE's slow fades
// or 5G's hard outages.
func WiFi(rng *sim.Rand, burstRate int64, periodMS int) (*Trace, error) {
	if burstRate <= 0 {
		return nil, fmt.Errorf("trace: non-positive rate %d", burstRate)
	}
	on := true
	return synthesize("wifi", burstRate, 5, periodMS, func() float64 {
		if on {
			// Keep the channel with p = 0.7; lose it to contention otherwise.
			on = rng.Float64() < 0.7
		} else {
			// Win the next backoff round with p = 0.4.
			on = rng.Float64() < 0.4
		}
		if on {
			return float64(burstRate)
		}
		return 0
	})
}

// Corpus builds the standard link-character corpus for the linkchar
// experiment grid: one trace per technology, all derived from the given
// seed, with rates chosen so a multi-second bulk transfer finishes in a
// bounded number of simulated seconds. The traces differ in burstiness
// structure — LTE fades, 5G hard outages, WiFi contention stalls — not
// just mean rate.
func Corpus(seed uint64, periodMS int) ([]*Trace, error) {
	rng := sim.NewRand(seed)
	lte, err := LTE(rng.Fork(), 2_000_000, 24_000_000, periodMS)
	if err != nil {
		return nil, err
	}
	nr, err := NR5G(rng.Fork(), 20_000_000, 120_000_000, periodMS)
	if err != nil {
		return nil, err
	}
	wifi, err := WiFi(rng.Fork(), 30_000_000, periodMS)
	if err != nil {
		return nil, err
	}
	return []*Trace{lte, nr, wifi}, nil
}
