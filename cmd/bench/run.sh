#!/usr/bin/env bash
# Builds cmd/bench from source and runs it with the given arguments, from the
# root of a checkout. Everything the build writes -- the Go build cache and
# the binary -- stays inside the checkout, under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/bench" .
exec "$build/bench" "$@"
