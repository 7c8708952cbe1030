#!/bin/sh
# Entry point of the benchmark: builds the harness from the checkout it is
# started in and runs it there. Everything written — go build cache, built
# binaries, campaign stores, span files — stays under .bench_build/.
set -e
root=$(pwd)
mkdir -p "$root/.bench_build/bin" "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp"
export TMPDIR="$root/.bench_build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$root/.bench_build/bin/bench" .
exec "$root/.bench_build/bin/bench" "$@"
