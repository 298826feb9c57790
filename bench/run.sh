#!/usr/bin/env bash
# The benchmark's entry point, run from the root of a checkout:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# It builds ./bench (its own module beside the repository's) and runs it.
# Everything it writes — Go's build cache, the binary, store segments,
# span files — goes under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/avrbench" .)
exec "$build/avrbench" -workdir "$build/work" "$@"
