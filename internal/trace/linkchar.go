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

// emitStep appends delivery opportunities for one [start,end) window at the
// given rate (bits/second), threading the fractional-packet accumulator.
func emitStep(ms *[]int64, start, end int, rate float64, acc *float64) {
	perMS := rate / bitsPerPacket / 1000.0
	for t := start; t < end; t++ {
		*acc += perMS
		for *acc >= 1 {
			*ms = append(*ms, int64(t))
			*acc--
		}
	}
}

// LTE synthesizes a cellular trace with the signature of Mahimahi's
// Verizon-LTE captures: a mean-reverting rate walk between minRate and
// maxRate punctuated by deep fades — handovers or signal loss during which
// the link crawls at ~5% of its mean for hundreds of milliseconds, then
// recovers. Fades are where self-inflicted queueing delay explodes, which
// is exactly the regime the bufferbloat experiments probe.
func LTE(rng *sim.Rand, minRate, maxRate int64, periodMS int) (*Trace, error) {
	if minRate <= 0 || maxRate < minRate {
		return nil, fmt.Errorf("trace: invalid rate range [%d,%d]", minRate, maxRate)
	}
	if periodMS <= 0 {
		return nil, fmt.Errorf("trace: non-positive period %d ms", periodMS)
	}
	const stepMS = 20
	mid := float64(minRate+maxRate) / 2
	rate := mid
	span := float64(maxRate - minRate)
	fadeLeft := 0 // remaining fade steps
	var ms []int64
	acc := 0.0
	for start := 0; start < periodMS; start += stepMS {
		rate += 0.3*(mid-rate) + 0.25*span*rng.NormFloat64()
		if rate < float64(minRate) {
			rate = float64(minRate)
		}
		if rate > float64(maxRate) {
			rate = float64(maxRate)
		}
		eff := rate
		if fadeLeft > 0 {
			fadeLeft--
			eff = rate * 0.05
		} else if rng.Float64() < 0.02 {
			// Enter a fade lasting 200–600 ms.
			fadeLeft = 10 + int(rng.Float64()*20)
		}
		end := start + stepMS
		if end > periodMS {
			end = periodMS
		}
		emitStep(&ms, start, end, eff, &acc)
	}
	if len(ms) == 0 {
		ms = append(ms, int64(periodMS))
	}
	return New("lte", ms)
}

// NR5G synthesizes a millimeter-wave 5G trace: very high rates with hard
// blockage outages. mmWave links deliver an order of magnitude more than
// LTE while line-of-sight holds, then drop to zero for 100–500 ms when the
// path is blocked — an outage structure (complete stall, abrupt recovery)
// that stresses RTO machinery rather than queue build-up.
func NR5G(rng *sim.Rand, minRate, maxRate int64, periodMS int) (*Trace, error) {
	if minRate <= 0 || maxRate < minRate {
		return nil, fmt.Errorf("trace: invalid rate range [%d,%d]", minRate, maxRate)
	}
	if periodMS <= 0 {
		return nil, fmt.Errorf("trace: non-positive period %d ms", periodMS)
	}
	const stepMS = 10
	mid := float64(minRate+maxRate) / 2
	rate := mid
	span := float64(maxRate - minRate)
	blockLeft := 0
	var ms []int64
	acc := 0.0
	for start := 0; start < periodMS; start += stepMS {
		rate += 0.4*(mid-rate) + 0.3*span*rng.NormFloat64()
		if rate < float64(minRate) {
			rate = float64(minRate)
		}
		if rate > float64(maxRate) {
			rate = float64(maxRate)
		}
		eff := rate
		if blockLeft > 0 {
			blockLeft--
			eff = 0 // total blockage: no opportunities at all
		} else if rng.Float64() < 0.015 {
			// Blockage outage lasting 100–500 ms.
			blockLeft = 10 + int(rng.Float64()*40)
		}
		end := start + stepMS
		if end > periodMS {
			end = periodMS
		}
		emitStep(&ms, start, end, eff, &acc)
	}
	if len(ms) == 0 {
		ms = append(ms, int64(periodMS))
	}
	return New("5g", ms)
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
	if periodMS <= 0 {
		return nil, fmt.Errorf("trace: non-positive period %d ms", periodMS)
	}
	const stepMS = 5
	on := true
	var ms []int64
	acc := 0.0
	for start := 0; start < periodMS; start += stepMS {
		if on {
			// Keep the channel with p = 0.7; lose it to contention otherwise.
			if rng.Float64() >= 0.7 {
				on = false
			}
		} else {
			// Win the next backoff round with p = 0.4.
			if rng.Float64() < 0.4 {
				on = true
			}
		}
		eff := 0.0
		if on {
			eff = float64(burstRate)
		}
		end := start + stepMS
		if end > periodMS {
			end = periodMS
		}
		emitStep(&ms, start, end, eff, &acc)
	}
	if len(ms) == 0 {
		ms = append(ms, int64(periodMS))
	}
	return New("wifi", ms)
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
