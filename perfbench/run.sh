#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload google-200 --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build in the current
# directory: the Go build cache, the binary, scratch trace and journal
# files (removed at the end of each run) and the span dump of the last
# traced run of each workload.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

# Keep the Go toolchain's caches and settings inside the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
