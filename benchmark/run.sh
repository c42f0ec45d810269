#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the checkout root and runs
# it from there, so that every file the build and the run write stays
# inside the checkout (`go run ./benchmark` does the same work but keeps
# its build cache under $HOME). Arguments go to the benchmark unchanged:
#
#   bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# The go command's cache, temp files, env file and telemetry counters.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
export TGRAPH_BENCH_COMMIT="${TGRAPH_BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
go build -o "$build/tgraph-benchmark" ./benchmark >&2
exec "$build/tgraph-benchmark" "$@"
