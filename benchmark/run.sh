#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the Go toolchain
# writes (build cache, module cache, its per-user config and counters, the
# binary) stays under .bench_build in the checkout, so a run touches nothing
# outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/cqbenchmark" .)
cd "$root"
exec "$build/cqbenchmark" "$@"
