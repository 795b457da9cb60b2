#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash perfbench/run.sh --workload live-random-warm --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. The build, the Go build cache and the
# traced run's span files all stay under .bench_build in the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"

# Keep everything the go command writes (build cache, module cache, temp
# files, telemetry under the user config dir) inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-spans" "$@"
