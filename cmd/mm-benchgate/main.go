// mm-benchgate is the repository's benchmark regression gate: it compares
// `go test -bench` output against a committed JSON baseline and fails when
// a benchmark regressed beyond a tolerance, benchstat-style (median over
// -count runs, per benchmark).
//
//	go test -run '^$' -bench 'PageLoad$|TCPTransfer' -benchmem -count 5 . > bench.txt
//	mm-benchgate -baseline BENCH_PR12.json bench.txt
//
// Two thresholds apply. allocs/op is machine-independent, so its tolerance
// (-alloc-tolerance, default 5%) is tight and is the primary CI signal.
// ns/op depends on the host, so its tolerance (-tolerance, default 150%)
// only catches catastrophic regressions on CI hardware; for a meaningful
// time comparison run on the host that recorded the baseline with
// -tolerance 10 (see EXPERIMENTS.md, "Benchmark baselines"). A baseline row
// the run did not measure fails the gate too, so a deleted or renamed
// benchmark cannot drop out of it silently.
//
//	mm-benchgate -record new.json bench.txt   # write a new baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baselineFile mirrors the committed BENCH_*.json layout.
type baselineFile struct {
	Meta       map[string]any           `json:"_meta,omitempty"`
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

type baselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchLine matches one `go test -bench` result line; sub-benchmark names
// keep their /suffix, and the GOMAXPROCS -N suffix is stripped.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\S+) ns/op(.*)$`)

func main() {
	baseline := flag.String("baseline", "", "baseline JSON to compare against")
	record := flag.String("record", "", "write the measured medians to this JSON file instead of comparing")
	tolerance := flag.Float64("tolerance", 150, "allowed ns/op regression in percent")
	allocTol := flag.Float64("alloc-tolerance", 5, "allowed allocs/op regression in percent")
	flag.Parse()
	if flag.NArg() != 1 {
		fatalf("usage: mm-benchgate [-baseline file|-record file] bench-output.txt")
	}
	runs, order := parseBench(flag.Arg(0))
	if len(runs) == 0 {
		fatalf("mm-benchgate: no benchmark results in %s", flag.Arg(0))
	}
	measured := make(map[string]baselineEntry, len(runs))
	for name, rs := range runs {
		measured[name] = baselineEntry{
			NsPerOp:     medianF(project(rs, func(e baselineEntry) float64 { return e.NsPerOp })),
			BytesPerOp:  int64(medianF(project(rs, func(e baselineEntry) float64 { return float64(e.BytesPerOp) }))),
			AllocsPerOp: int64(medianF(project(rs, func(e baselineEntry) float64 { return float64(e.AllocsPerOp) }))),
		}
	}

	if *record != "" {
		writeBaseline(*record, measured, len(runs[order[0]]))
		return
	}
	if *baseline == "" {
		fatalf("mm-benchgate: need -baseline or -record")
	}
	base := readBaseline(*baseline)
	if compare(os.Stdout, base.Benchmarks, measured, order, *tolerance, *allocTol) {
		fmt.Printf("mm-benchgate: regression beyond tolerance (ns/op %.0f%%, allocs/op %.0f%%) or baseline rows gone vs %s\n",
			*tolerance, *allocTol, *baseline)
		os.Exit(1)
	}
	fmt.Printf("mm-benchgate: all benchmarks within tolerance of %s\n", *baseline)
}

// compare writes one line per measured benchmark (in order) and one per
// baseline row the run did not measure to w, and reports whether the gate
// failed: a measured row beyond either tolerance (in percent), or a gone
// baseline row. Measured rows without a baseline print as new and pass.
func compare(w io.Writer, base, measured map[string]baselineEntry, order []string, tolerance, allocTol float64) bool {
	failed := false
	for _, name := range order {
		short := strings.TrimPrefix(name, "Benchmark")
		b, ok := base[name]
		if !ok {
			fmt.Fprintf(w, "  new   %-40s %12.0f ns/op %8d allocs/op (no baseline)\n",
				short, measured[name].NsPerOp, measured[name].AllocsPerOp)
			continue
		}
		m := measured[name]
		nsDelta := pctDelta(m.NsPerOp, b.NsPerOp)
		allocDelta := pctDelta(float64(m.AllocsPerOp), float64(b.AllocsPerOp))
		status := "ok"
		if nsDelta > tolerance {
			status = "FAIL ns/op"
			failed = true
		}
		if allocDelta > allocTol {
			status = "FAIL allocs/op"
			failed = true
		}
		fmt.Fprintf(w, "  %-5s %-40s ns/op %+7.1f%% (%.0f vs %.0f)  allocs/op %+6.1f%% (%d vs %d)\n",
			status, short, nsDelta, m.NsPerOp, b.NsPerOp, allocDelta, m.AllocsPerOp, b.AllocsPerOp)
	}
	gone := make([]string, 0, len(base))
	for name := range base {
		if _, ok := measured[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "  gone  %-40s in the baseline, not measured\n", strings.TrimPrefix(name, "Benchmark"))
		failed = true
	}
	return failed
}

// parseBench extracts per-benchmark result lists from a bench output file,
// remembering first-seen order for stable reports.
func parseBench(path string) (map[string][]baselineEntry, []string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("mm-benchgate: %v", err)
	}
	runs := map[string][]baselineEntry{}
	var order []string
	for _, line := range strings.Split(string(data), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		e := baselineEntry{NsPerOp: ns}
		rest := strings.Fields(m[3])
		for i := 0; i+1 < len(rest); i++ {
			v, err := strconv.ParseInt(rest[i], 10, 64)
			if err != nil {
				continue
			}
			switch rest[i+1] {
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			}
		}
		if _, seen := runs[m[1]]; !seen {
			order = append(order, m[1])
		}
		runs[m[1]] = append(runs[m[1]], e)
	}
	return runs, order
}

func project(rs []baselineEntry, f func(baselineEntry) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func medianF(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func pctDelta(measured, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (measured - base) / base
}

func readBaseline(path string) baselineFile {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("mm-benchgate: %v", err)
	}
	var b baselineFile
	if err := json.Unmarshal(data, &b); err != nil {
		fatalf("mm-benchgate: %s: %v", path, err)
	}
	return b
}

func writeBaseline(path string, measured map[string]baselineEntry, count int) {
	out := baselineFile{
		Meta: map[string]any{
			"description": fmt.Sprintf("Benchmark baseline (median of %d runs); capture/compare workflow: see EXPERIMENTS.md, 'Benchmark baselines'.", count),
		},
		Benchmarks: measured,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatalf("mm-benchgate: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("mm-benchgate: %v", err)
	}
	fmt.Printf("mm-benchgate: wrote %s (%d benchmarks)\n", path, len(measured))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
