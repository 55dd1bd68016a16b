#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the build
# and the run write (Go build cache, binary, spill files, traces) under
# .bench_build/ in the checkout root. Arguments are passed to the program:
#
#   bash benchmark/run.sh --workload mem-uniform-int --seed 42 --seconds 15 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$build/tmp"
go build -C "$here" -o "$build/rowsort-benchmark" .
exec "$build/rowsort-benchmark" "$@"
