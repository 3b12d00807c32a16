// Package trace implements Mahimahi's packet-delivery trace format.
//
// A trace is a text file with one integer per line: the time, in
// milliseconds from the start of the emulation, at which an MTU-sized packet
// may be delivered (paper §2, LinkShell: "Each line in the trace is a
// packet-delivery opportunity"). Multiple lines may carry the same
// timestamp, meaning several packets can be delivered in that millisecond.
// When the trace is exhausted, LinkShell loops it, offsetting subsequent
// passes by the trace's duration — this package reproduces that behaviour.
//
// The package also generates traces: constant-rate traces for fixed link
// speeds (e.g. the 1 Mbit/s, 14 Mbits/s, 25 Mbits/s links of Table 2 and the
// 1000 Mbits/s trace of Figure 2) and synthetic cellular traces with
// time-varying delivery rates, mimicking the Verizon/AT&T traces shipped
// with Mahimahi.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/netem"
	"repro/internal/sim"
)

// Trace is an immutable sequence of packet-delivery opportunities,
// millisecond timestamps in non-decreasing order.
type Trace struct {
	// opportunities[i] is the time of the i-th delivery opportunity within
	// one pass of the trace.
	opportunities []sim.Time
	// period is the duration of one pass; passes repeat every period.
	period sim.Time
	name   string
}

// ErrEmpty is returned when parsing a trace with no delivery opportunities.
var ErrEmpty = errors.New("trace: no delivery opportunities")

// maxTimestampMS bounds a trace's timestamps at one day, 2,880 times the
// 30 s traces Mahimahi ships. A timestamp near the int64 limit would
// overflow the conversion to virtual time and Cursor.Next's per-pass
// offsets, leaving a trace with a negative period that never yields.
const maxTimestampMS = 24 * 60 * 60 * 1000

// checkTimestamp refuses a timestamp that is negative or later than one
// day, naming the trace and the line it came from.
func checkTimestamp(name string, line int, m int64) error {
	if m < 0 || m > maxTimestampMS {
		return fmt.Errorf("trace %s: line %d: timestamp %d ms is outside [0, %d] (one day)",
			name, line, m, maxTimestampMS)
	}
	return nil
}

// New builds a trace from raw millisecond timestamps. The slice is copied
// and sorted. The period is the last timestamp rounded up to the next
// millisecond (minimum 1 ms), matching Mahimahi's looping rule. A
// timestamp that is negative or later than one day is refused; the i-th
// timestamp counts as line i+1.
func New(name string, ms []int64) (*Trace, error) {
	if len(ms) == 0 {
		return nil, ErrEmpty
	}
	opps := make([]sim.Time, len(ms))
	for i, m := range ms {
		if err := checkTimestamp(name, i+1, m); err != nil {
			return nil, err
		}
		opps[i] = sim.Time(m) * sim.Millisecond
	}
	sort.Slice(opps, func(i, j int) bool { return opps[i] < opps[j] })
	period := opps[len(opps)-1]
	if period == 0 {
		period = sim.Millisecond
	}
	return &Trace{opportunities: opps, period: period, name: name}, nil
}

// Parse reads a trace in Mahimahi's on-disk format: one non-negative
// integer (milliseconds) per line; blank lines and lines starting with '#'
// are ignored.
func Parse(name string, r io.Reader) (*Trace, error) {
	var ms []int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace %s: line %d: %w", name, lineNo, err)
		}
		if err := checkTimestamp(name, lineNo, v); err != nil {
			return nil, err
		}
		ms = append(ms, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace %s: %w", name, err)
	}
	return New(name, ms)
}

// Format writes the trace in Mahimahi's on-disk format.
func (t *Trace) Format(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, opp := range t.opportunities {
		if _, err := fmt.Fprintf(bw, "%d\n", int64(opp/sim.Millisecond)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Name reports the trace's label (file name or generator description).
func (t *Trace) Name() string { return t.name }

// Len reports the number of opportunities in one pass.
func (t *Trace) Len() int { return len(t.opportunities) }

// Period reports the duration of one pass of the trace.
func (t *Trace) Period() sim.Time { return t.period }

// MeanRate reports the average delivery rate of one pass, in bits/second,
// assuming MTU-sized packets per opportunity.
func (t *Trace) MeanRate() float64 {
	if t.period == 0 {
		return 0
	}
	bits := float64(len(t.opportunities)) * float64(netem.MTU) * 8
	return bits / t.period.Seconds()
}

// Cursor iterates delivery opportunities, looping forever. Cursors are
// cheap; each TraceBox direction holds its own.
type Cursor struct {
	t      *Trace
	idx    int
	offset sim.Time // accumulated period offsets from completed passes
}

// Cursor returns an iterator positioned at the first opportunity.
func (t *Trace) Cursor() *Cursor { return &Cursor{t: t} }

// Next consumes and returns the next delivery opportunity at or after the
// given time. Each call consumes exactly one opportunity, so a trace with k
// lines at the same millisecond yields k same-timestamp opportunities —
// this is how a 1000 Mbit/s trace delivers 83 packets within one
// millisecond. Opportunities earlier than `after` (the link was idle) are
// skipped. The trace loops indefinitely, so Next always succeeds.
func (c *Cursor) Next(after sim.Time) sim.Time {
	for {
		if c.idx >= len(c.t.opportunities) {
			c.idx = 0
			c.offset += c.t.period
		}
		at := c.offset + c.t.opportunities[c.idx]
		c.idx++
		if at >= after {
			return at
		}
		// Fast-forward whole passes when the idle gap is large.
		if c.idx >= len(c.t.opportunities) && c.offset+c.t.period <= after {
			passes := (after - c.offset) / c.t.period
			c.offset += passes * c.t.period
			c.idx = 0
		}
	}
}

// MaxOpportunities bounds the delivery opportunities any generator in this
// package makes, which each checks at its largest rate before generating
// anything: an absurd rate or period (a 1 Tbit/s link) would otherwise
// exhaust memory one opportunity at a time. Two million is 20 times the
// largest trace any experiment or example in this repository builds (a
// 20 Mbit/s cellular trace over 60 s) and 12 times a 1 Gbit/s link's
// two-second trace.
const MaxOpportunities = 1 << 21

// bitsPerPacket is the size of one delivery opportunity: an MTU, in bits.
const bitsPerPacket = netem.MTU * 8

// synthesize builds a generated trace over periodMS milliseconds. Every
// stepMS milliseconds it draws the next rate (bits/second) from rate and
// spreads it over the step's milliseconds, carrying the fractional packet
// from one millisecond to the next so any rate is exact on average (1
// Mbit/s is one packet every 12 ms). maxRate is the largest rate the
// process draws: a trace that could hold more than MaxOpportunities at it
// is refused. A trace with no opportunity gets one at the period.
func synthesize(name string, maxRate int64, stepMS, periodMS int, rate func() float64) (*Trace, error) {
	if periodMS <= 0 {
		return nil, fmt.Errorf("trace: non-positive period %d ms", periodMS)
	}
	if n := float64(maxRate) * float64(periodMS) / (bitsPerPacket * 1000); n > MaxOpportunities {
		return nil, fmt.Errorf("trace: %d bit/s over %d ms is %.0f delivery opportunities, more than the %d a generated trace may hold",
			maxRate, periodMS, n, MaxOpportunities)
	}
	var ms []int64
	acc := 0.0
	for start := 0; start < periodMS; start += stepMS {
		perMS := rate() / bitsPerPacket / 1000.0
		for t := start; t < min(start+stepMS, periodMS); t++ {
			acc += perMS
			for acc >= 1 {
				ms = append(ms, int64(t))
				acc--
			}
		}
	}
	if len(ms) == 0 {
		ms = append(ms, int64(periodMS))
	}
	return New(name, ms)
}

// walk returns a mean-reverting rate walk between minRate and maxRate
// bits/second, starting at their midpoint: each draw pulls the rate toward
// the midpoint by pull, adds Gaussian noise of noise times the span, and
// clamps the result into the range.
func walk(rng *sim.Rand, minRate, maxRate int64, pull, noise float64) (func() float64, error) {
	if minRate <= 0 || maxRate < minRate {
		return nil, fmt.Errorf("trace: invalid rate range [%d,%d]", minRate, maxRate)
	}
	mid := float64(minRate+maxRate) / 2
	span := float64(maxRate - minRate)
	rate := mid
	return func() float64 {
		rate += pull*(mid-rate) + noise*span*rng.NormFloat64()
		rate = min(max(rate, float64(minRate)), float64(maxRate))
		return rate
	}, nil
}

// Constant builds a constant-rate trace: delivery opportunities spaced so
// the mean rate is bitsPerSec, covering periodMS milliseconds. This is how
// Mahimahi users create fixed-speed links for mm-link. A trace of more than
// MaxOpportunities opportunities is refused.
func Constant(bitsPerSec int64, periodMS int) (*Trace, error) {
	if bitsPerSec <= 0 {
		return nil, fmt.Errorf("trace: non-positive rate %d", bitsPerSec)
	}
	name := fmt.Sprintf("constant-%dbps", bitsPerSec)
	tr, err := synthesize(name, bitsPerSec, periodMS, periodMS, func() float64 { return float64(bitsPerSec) })
	if err != nil || tr.opportunities[0] < sim.Time(periodMS)*sim.Millisecond {
		return tr, err
	}
	// Rate below one packet per period (synthesize's lone opportunity sits
	// at the period): schedule it at the interval implied by the rate.
	interval := max(1, int64(float64(bitsPerPacket)/float64(bitsPerSec)*1000.0))
	return New(name, []int64{interval})
}

// Cellular synthesizes a time-varying trace reminiscent of Mahimahi's
// recorded LTE traces: the delivery rate follows a mean-reverting random
// walk between minRate and maxRate bits/second, changing every stepMS
// milliseconds, over periodMS milliseconds total. A trace that could exceed
// MaxOpportunities opportunities (judged at maxRate) is refused.
func Cellular(rng *sim.Rand, minRate, maxRate int64, stepMS, periodMS int) (*Trace, error) {
	rate, err := walk(rng, minRate, maxRate, 0.3, 0.25)
	if err != nil {
		return nil, err
	}
	if stepMS <= 0 || periodMS < stepMS {
		return nil, fmt.Errorf("trace: invalid step/period %d/%d", stepMS, periodMS)
	}
	return synthesize("cellular", maxRate, stepMS, periodMS, rate)
}
