#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument goes to the program. All of the toolchain's caches and temporary
# files are kept under .bench_build at the root of the checkout, so that a
# run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/siftbench" .
exec "$build/siftbench" "$@"
