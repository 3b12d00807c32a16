package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailLadder lists the percentiles op_ms_tail may report, highest first,
// in tenths of a percent.
var tailLadder = []int{999, 995, 990, 980, 950, 900, 800, 750, 500}

// tailPercentile picks the highest percentile in tailLadder that leaves at
// least ten of n samples beyond it. n is the workload's fixed op count, not
// the number of ops a run happened to complete, so the same percentile is
// reported on every run and every host.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if n*(1000-q) >= 10*1000 {
			return float64(q) / 10
		}
	}
	return 50
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks. xs must be sorted ascending and non-empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := p / 100 * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// getrusage fails only for an invalid "who" or buffer, neither of which
	// this call can pass.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// runtimeSample is a reading of the Go runtime counters the per-layer
// runtime metrics are built from.
type runtimeSample struct {
	gcCPU, busyCPU float64
	allocBytes     uint64
	allocObjects   uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return runtimeSample{
		gcCPU:        ms[0].Value.Float64(),
		busyCPU:      ms[1].Value.Float64() - ms[2].Value.Float64(),
		allocBytes:   ms[3].Value.Uint64(),
		allocObjects: ms[4].Value.Uint64(),
	}
}
