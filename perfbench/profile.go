package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// benchModule is the module path of the program under test.
const benchModule = "repro"

// cpuModules are the packages whose share of CPU samples the traced run
// reports as <module>.cpu_share.
var cpuModules = []string{
	"sim", "netem", "nsim", "tcpsim", "httpx", "match", "replayshell", "dnssim",
	"browser", "recordshell", "inet", "webgen", "archive", "engine", "runtime",
}

// packageOf attributes a source file named in the CPU profile of a
// -trimpath build to a module: a package of the program's internal/ tree
// by its directory name, the Go runtime as "runtime", this benchmark's own
// files as "bench", and anything else (the rest of the standard library,
// generated wrappers) as "other".
func packageOf(file string) string {
	file = strings.TrimSuffix(file, " (inline)")
	if rest, ok := moduleRel(file); ok {
		if pkg, ok := strings.CutPrefix(rest, "internal/"); ok {
			if i := strings.IndexByte(pkg, '/'); i > 0 {
				return pkg[:i]
			}
		}
		if strings.HasPrefix(rest, "perfbench/") {
			return "bench"
		}
	}
	if strings.HasPrefix(file, "runtime/") || strings.HasPrefix(file, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// moduleRel returns file relative to the program's module root. A
// -trimpath build names the main module's files "repro/..." and a
// dependency's "repro@<version>/...".
func moduleRel(file string) (string, bool) {
	mod, rest, ok := strings.Cut(file, "/")
	if ok && (mod == benchModule || strings.HasPrefix(mod, benchModule+"@")) {
		return rest, true
	}
	return "", false
}

// cpuShares runs the toolchain's pprof over a CPU profile, grouped by
// source file with no file dropped, and returns each module's share of the
// flat (self) samples.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-files", "-unit=ms", "-nodefraction=0", "-nodecount=1000000", profile)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return parsePprofTop(out.String())
}

// parsePprofTop reads `pprof -top -files -unit=ms` output: after the
// "flat  flat%  sum%  cum  cum%" header, one line per file whose first field
// is its flat time in ms and whose last field is the file path.
func parsePprofTop(text string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(strings.NewReader(text))
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %v", sc.Text(), err)
		}
		file := strings.Join(fields[5:], " ")
		flat[packageOf(file)] += ms
		total += ms
	}
	if !inTable || total == 0 {
		return nil, fmt.Errorf("pprof printed no samples")
	}
	for k := range flat {
		flat[k] /= total
	}
	return flat, nil
}
