// mm-trace generates and inspects Mahimahi packet-delivery traces.
//
//	mm-trace -make constant -rate 14 -period 5000 -out 14mbps.trace
//	mm-trace -make cellular -min 2 -max 20 -out lte.trace
//	mm-trace -inspect 14mbps.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	mk := flag.String("make", "", `generator: "constant" or "cellular"`)
	rate := flag.Float64("rate", 12, "constant generator rate, Mbit/s")
	minRate := flag.Float64("min", 1, "cellular minimum rate, Mbit/s")
	maxRate := flag.Float64("max", 20, "cellular maximum rate, Mbit/s")
	step := flag.Int("step", 100, "cellular rate-change interval, ms")
	period := flag.Int("period", 5000, "trace duration, ms")
	seed := flag.Uint64("seed", 1, "cellular generator seed")
	out := flag.String("out", "", "output file (default stdout)")
	inspect := flag.String("inspect", "", "trace file to summarize")
	flag.Parse()

	switch {
	case *inspect != "":
		f, err := os.Open(*inspect)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err := trace.Parse(*inspect, f)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d opportunities over %v, mean rate %.2f Mbit/s\n",
			tr.Name(), tr.Len(), tr.Period(), tr.MeanRate()/1e6)
	case *mk == "constant":
		tr, err := trace.Constant(int64(*rate*1e6), *period)
		if err != nil {
			fatal(err)
		}
		emit(tr, *out)
	case *mk == "cellular":
		tr, err := trace.Cellular(sim.NewRand(*seed),
			int64(*minRate*1e6), int64(*maxRate*1e6), *step, *period)
		if err != nil {
			fatal(err)
		}
		emit(tr, *out)
	default:
		fmt.Fprintln(os.Stderr, "usage: mm-trace -make constant|cellular [flags], or -inspect file")
		os.Exit(2)
	}
}

func emit(tr *trace.Trace, out string) {
	if out == "" {
		if err := tr.Format(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	err = tr.Format(f)
	// The file is only written once it closes cleanly.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d opportunities, mean rate %.2f Mbit/s\n",
		out, tr.Len(), tr.MeanRate()/1e6)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mm-trace:", err)
	os.Exit(1)
}
