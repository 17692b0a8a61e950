#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json "command"). Builds the
# benchmark binary from this directory's own module and runs it with the
# given arguments. Everything the Go toolchain writes — build cache,
# temporary files, binaries — stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bin/afs-benchmark" .)
cd "$root"
exec "$build/bin/afs-benchmark" "$@"
