#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload dense-paper --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and run
# scratch all live under .bench_build/ so nothing is written outside the
# checkout. The build fails, and nothing runs, when the simulator's sources
# are not beside the benchmark.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
