#!/usr/bin/env bash
# Entry point of the repo benchmark (the "command" of BENCHMARK.json).
# Builds the harness from the sources of this checkout and runs it from the
# checkout root with the arguments given. Every build product, the Go build
# cache included, stays inside the checkout; the harness builds opprenticed
# itself with the same environment.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
