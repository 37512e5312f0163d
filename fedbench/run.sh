#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one
# measurement: bash fedbench/run.sh --workload read-inproc --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build outputs, data files and span
# dumps stay under .bench_build/.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS= GOTOOLCHAIN=local
(cd "$(dirname "$0")" && go build -o "$build/bin/fedbench" .)
exec "$build/bin/fedbench" -out "$build/fedbench" "$@"
