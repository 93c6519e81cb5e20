#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper3 --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary and the results all
# stay under .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
