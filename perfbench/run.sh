#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload search-k10 --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact (compiler cache, binary, traces) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
