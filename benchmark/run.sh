#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout; everything it writes stays under .bench_build/ in that checkout.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Keep the toolchain's own files inside the checkout too, and off the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
