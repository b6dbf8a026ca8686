#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload live-hit --seed 3 --seconds 20 --trace 0
#
# The benchmark is its own Go module (perfbench/go.mod) that replaces the
# streamcache module with the checkout it sits in, so it can import the
# internal packages. Build cache, binary, temporary files and traces all
# stay under .bench_build in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
