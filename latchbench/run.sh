#!/usr/bin/env bash
# Builds the latchchar benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash latchbench/run.sh --workload contour --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, binary) stays under .bench_build/ in that root. Without the
# latchchar sources beside latchbench/ the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOTELEMETRY=off

(cd "$root/latchbench" && go build -o "$out/latchbench" .)
exec "$out/latchbench" "$@"
