#!/usr/bin/env bash
# Entry point BENCHMARK.json names. Run from the repository root:
#
#   bash bench/run.sh --workload single --seed 1 --seconds 20 --trace 0
#
# It keeps everything the Go toolchain writes (build cache, temp files,
# telemetry) under .bench_build/ in the checkout, builds the benchmark, and
# hands it the arguments. The benchmark builds cmd/ssspd and cmd/ssspr itself.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off
cd "$root"
go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
