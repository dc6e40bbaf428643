#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload batch-poly --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the checkout.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --bench-dir perfbench --out "$build/perfbench" "$@"
