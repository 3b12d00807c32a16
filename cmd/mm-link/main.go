// mm-link measures a replayed page load over trace-driven links, the
// analogue of `mm-link up.trace down.trace -- browser`:
//
//	mm-link uplink.trace downlink.trace
//	mm-link -rate 14 -delay 30            (constant-rate links, no files)
//	mm-link -rate 14 -uplink-queue codel -downlink-queue codel
//	mm-link -rate 12 -ecn -downlink-queue pie -pie-ecn
//	mm-link -rate 12 -ecn -downlink-queue fq_codel -fq-ecn -fq-flows 256
//	mm-link -rate 12 -delay 20 -reorder 0.05 -reorder-hold 30
//	mm-link -rate 12 -loss-state 0.02,0.4,0.2,0.1,0.005
//
// The queue flags mirror Mahimahi's --uplink-queue/--downlink-queue:
// droptail (default), infinite, codel (RFC 8289, parameterized by
// -codel-target/-codel-interval), pie (RFC 8033, parameterized by
// -pie-target/-pie-tupdate) or fq_codel (RFC 8290, parameterized by
// -fq-flows/-fq-quantum plus the codel target/interval flags), with
// -queue/-queue-bytes bounding the buffer in packets/bytes. -codel-ecn,
// -pie-ecn and -fq-ecn switch the AQM from dropping to CE-marking ECT
// packets; -ecn makes the replayed connections negotiate ECN so their
// traffic actually is ECT.
//
// The impairment flags mirror tc-netem: -reorder/-reorder-hold park
// selected packets on the virtual clock, -duplicate clones them, -corrupt
// flags them for checksum discard at the receiver, and -loss-state runs a
// 4-state Markov loss chain ("p13,p31,p32,p23,p14") behind the link. A
// probability outside [0,1], a -loss-state that is not five such values
// with p13+p14 <= 1 and p31+p32 <= 1, or an unknown queue discipline exits
// with status 2 and a message naming the flag.
//
// Trace files use Mahimahi's format: one millisecond timestamp per line,
// each line one MTU-sized packet-delivery opportunity.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/netem"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/webgen"
)

func main() {
	rateMbps := flag.Float64("rate", 0, "constant rate in Mbit/s for both directions (instead of trace files)")
	delayMS := flag.Int("delay", 0, "additional DelayShell one-way delay, ms")
	queue := flag.Int("queue", 0, "queue limit in packets (0 = unlimited)")
	queueBytes := flag.Int("queue-bytes", 0, "queue limit in bytes (0 = unlimited)")
	upQueue := flag.String("uplink-queue", "droptail", "uplink queue discipline: droptail|infinite|codel|pie|fq_codel")
	downQueue := flag.String("downlink-queue", "droptail", "downlink queue discipline: droptail|infinite|codel|pie|fq_codel")
	codelTarget := flag.Int("codel-target", 5, "codel sojourn-time target, ms")
	codelInterval := flag.Int("codel-interval", 100, "codel control interval, ms")
	codelECN := flag.Bool("codel-ecn", false, "codel marks ECT packets instead of dropping (RFC 8289 §4.1)")
	pieTarget := flag.Int("pie-target", 15, "pie queue-delay reference, ms (RFC 8033 QDELAY_REF)")
	pieTUpdate := flag.Int("pie-tupdate", 15, "pie probability-update period, ms (RFC 8033 T_UPDATE)")
	pieECN := flag.Bool("pie-ecn", false, "pie marks ECT packets instead of dropping (RFC 8033 §5.1)")
	fqFlows := flag.Int("fq-flows", 0, "fq_codel flow buckets (0 = RFC 8290 default, 1024)")
	fqQuantum := flag.Int("fq-quantum", 0, "fq_codel DRR quantum in bytes (0 = one MTU)")
	fqECN := flag.Bool("fq-ecn", false, "fq_codel marks ECT packets instead of dropping (RFC 8290 §4.3)")
	ecn := flag.Bool("ecn", false, "negotiate ECN on the replayed connections (their traffic becomes ECT)")
	reorder := flag.Float64("reorder", 0, "tc-netem reorder probability (both directions)")
	reorderHold := flag.Int("reorder-hold", 10, "how long a displaced packet is held, ms")
	duplicate := flag.Float64("duplicate", 0, "tc-netem duplicate probability (both directions)")
	corrupt := flag.Float64("corrupt", 0, "tc-netem corrupt probability (both directions)")
	lossState := flag.String("loss-state", "", "4-state Markov loss parameters \"p13,p31,p32,p23,p14\"")
	servers := flag.Int("servers", 12, "synthetic origin count")
	seed := flag.Uint64("seed", 1, "synthesis seed")
	loads := flag.Int("loads", 1, "number of page loads")
	flag.Parse()

	checkProb("-reorder", *reorder)
	checkProb("-duplicate", *duplicate)
	checkProb("-corrupt", *corrupt)
	var fourState []float64
	if *lossState != "" {
		var err error
		if fourState, err = parseLossState(*lossState); err != nil {
			usageErr("-loss-state: %v", err)
		}
	}
	mkSpec := func(kind, flagName string) netem.QdiscSpec {
		switch kind {
		case netem.QdiscDropTail, netem.QdiscInfinite, netem.QdiscCoDel, netem.QdiscPIE, netem.QdiscFQCoDel:
		default:
			usageErr("unknown %s %q (want droptail|infinite|codel|pie|fq_codel)", flagName, kind)
		}
		spec := netem.QdiscSpec{Kind: kind, Packets: *queue, Bytes: *queueBytes}
		if kind == netem.QdiscCoDel {
			spec.Target = sim.Time(*codelTarget) * sim.Millisecond
			spec.Interval = sim.Time(*codelInterval) * sim.Millisecond
			spec.ECN = *codelECN
		}
		if kind == netem.QdiscPIE {
			spec.Target = sim.Time(*pieTarget) * sim.Millisecond
			spec.TUpdate = sim.Time(*pieTUpdate) * sim.Millisecond
			spec.ECN = *pieECN
		}
		if kind == netem.QdiscFQCoDel {
			spec.Target = sim.Time(*codelTarget) * sim.Millisecond
			spec.Interval = sim.Time(*codelInterval) * sim.Millisecond
			spec.Flows = *fqFlows
			spec.Quantum = *fqQuantum
			spec.ECN = *fqECN
		}
		return spec
	}
	upSpec := mkSpec(*upQueue, "-uplink-queue")
	downSpec := mkSpec(*downQueue, "-downlink-queue")

	var up, down *trace.Trace
	var err error
	switch {
	case *rateMbps > 0:
		up, err = trace.Constant(int64(*rateMbps*1e6), 2000)
		if err == nil {
			down, err = trace.Constant(int64(*rateMbps*1e6), 2000)
		}
	case flag.NArg() == 2:
		up, err = loadTrace(flag.Arg(0))
		if err == nil {
			down, err = loadTrace(flag.Arg(1))
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: mm-link [flags] <up.trace> <down.trace>  (or -rate N)")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("uplink %s (%.1f Mbit/s mean), downlink %s (%.1f Mbit/s mean)\n",
		up.Name(), up.MeanRate()/1e6, down.Name(), down.MeanRate()/1e6)
	fmt.Printf("queues: uplink %s, downlink %s\n", upSpec, downSpec)

	link := shells.NewLinkShell(up, down)
	link.UpQueue = upSpec
	link.DownQueue = downSpec
	shellList := []shells.Shell{}
	if *delayMS > 0 {
		shellList = append(shellList, shells.NewDelayShell(sim.Time(*delayMS)*sim.Millisecond))
	}
	shellList = append(shellList, link)
	if *reorder > 0 || *duplicate > 0 || *corrupt > 0 || fourState != nil {
		impair := &shells.ImpairShell{
			ReorderProb: *reorder, ReorderHold: sim.Time(*reorderHold) * sim.Millisecond,
			DuplicateProb: *duplicate, CorruptProb: *corrupt,
			FourState: fourState,
			Seed:      *seed,
		}
		shellList = append(shellList, impair)
		fmt.Printf("impairments: %s\n", impair.Name())
	}

	page := webgen.GeneratePage(sim.NewRand(*seed), webgen.DefaultProfile("www.example.com", *servers))
	scratch := experiments.NewScratch()
	for i := 0; i < *loads; i++ {
		res := experiments.Load(experiments.LoadSpec{
			Page: page, Shells: shellList, DNSLatency: sim.Millisecond,
			ECN: *ecn, Scratch: scratch,
		})
		fmt.Printf("load %d: PLT %v (%d resources, %d KB, %d errors)\n",
			i+1, res.PLT.Duration().Round(time.Millisecond), res.Resources, res.Bytes/1024, res.Errors)
	}
}

func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Parse(path, f)
}

// checkProb rejects a probability flag outside [0,1] (NaN included).
func checkProb(name string, p float64) {
	if !(p >= 0 && p <= 1) {
		usageErr("%s %v outside [0,1]", name, p)
	}
}

// parseLossState parses -loss-state's "p13,p31,p32,p23,p14": exactly five
// probabilities in [0,1], where the gap state's exits (p13+p14) and the
// burst state's exits (p31+p32) each sum to at most 1.
func parseLossState(s string) ([]float64, error) {
	fields := strings.Split(s, ",")
	if len(fields) != 5 {
		return nil, fmt.Errorf("want five values \"p13,p31,p32,p23,p14\", got %q", s)
	}
	p := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || !(v >= 0 && v <= 1) {
			return nil, fmt.Errorf("%q is not a probability in [0,1]", f)
		}
		p[i] = v
	}
	if p[0]+p[4] > 1 {
		return nil, fmt.Errorf("p13+p14 = %g exceeds 1", p[0]+p[4])
	}
	if p[1]+p[2] > 1 {
		return nil, fmt.Errorf("p31+p32 = %g exceeds 1", p[1]+p[2])
	}
	return p, nil
}

// usageErr reports bad command-line input and exits 2, as flag does.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mm-link: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mm-link:", err)
	os.Exit(1)
}
