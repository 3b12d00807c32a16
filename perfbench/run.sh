#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span dumps,
# CPU profiles) stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

(cd "$bench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
