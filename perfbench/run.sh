#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload checkout-hot --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, data directories and span files all
# stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The module cache and the go command's config directory (telemetry
# counters) move there too, so nothing is written outside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
