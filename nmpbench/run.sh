#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run it from the repository root, e.g.
#   bash nmpbench/run.sh --workload paper-1node --seed 1 --seconds 30 --trace 0
# Every build and run artifact goes under .bench_build in the current
# directory, including the Go build cache.
set -euo pipefail
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C "$src" build -o "$build/nmpbench" .
exec "$build/nmpbench" "$@"
