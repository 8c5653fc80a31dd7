#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source into
# .bench_build inside the checkout (only the first call compiles anything)
# and runs it with the driver's arguments:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything Go writes while building stays under .bench_build too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$root/benchmark" -o "$build/neptune-benchmark" .
cd "$root"
exec "$build/neptune-benchmark" "$@"
