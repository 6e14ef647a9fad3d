#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the load generator from this
# directory (its own module) and runs it against the checkout above it.
# Everything the Go toolchain writes — build cache, temp files, binaries,
# its own telemetry counters — stays inside the checkout, under
# .bench_build/.
#
#   bash benchmark/run.sh --workload cold-pk --seed 1 --seconds 24 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # go keeps telemetry counters under the user config dir
export GOTOOLCHAIN=local GOPROXY=off

# Fails (and prints no result) where the repo around this directory is
# missing: the module's "replace mega => ../" has nothing to resolve to.
(cd "$here" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" "$@"
