#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root, the
# directory BENCHMARK.json is in. Everything the build and the run write
# stays inside the checkout: the binary, the Go build cache and Go's
# temporary files go under .bench_build/, results under benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
# The benchmark is a module of its own; its go.mod points at the repository
# it measures with a replace directive, so a directory without the rest of
# the repository fails here, before anything is printed.
go -C benchmark build -o "$build/gpssn-benchmark" .
exec "$build/gpssn-benchmark" "$@"
