#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the Go
# toolchain writes (build cache, module cache, config) is kept inside
# .bench_build/ so a run touches nothing outside the checkout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
go -C "$bench" build -o "$build/hhhbench" .
exec "$build/hhhbench" "$@"
