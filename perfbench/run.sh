#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload olap --seed 1 --seconds 15 --trace 0
# Run from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep every file the go command writes (build cache, module cache,
# telemetry counters under the user config directory) in the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
