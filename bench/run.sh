#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the Go toolchain writes (build cache, telemetry,
# the binary) stays under .bench_build in the current directory, which must
# be the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
    GOPATH="$build/home/go" GOCACHE="$build/gocache" GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
    go build -C "$root/bench" -o "$build/metricdb-bench" .
exec "$build/metricdb-bench" "$@"
