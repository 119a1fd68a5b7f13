#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   bash benchmark/run.sh suite [-repeats R] [-seed N] [-workload W]       every workload, untraced then traced
#   bash benchmark/run.sh calibrate [-sets K]                              suite K times, bounds into BENCHMARK.json
# Everything it writes stays under .bench_build/ in the checkout, the Go
# build cache included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
# The go command also writes telemetry counters under the user's config
# directory and may touch GOPATH; point both into the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/tornado-benchmark" .
exec "$build/tornado-benchmark" "$@"
