#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. The Go build and module caches, and HOME for
# anything else the toolchain keeps per user, are under .bench_build/
# too, so nothing outside the checkout is read or written; the first
# run in a fresh checkout therefore compiles the standard library as
# well (about half a minute on two cores).
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f go.mod || ! -d internal || ! -d cmd ]]; then
	echo "benchmark/run.sh: no go.mod, internal/ and cmd/ beside benchmark/: the program under test is not in this checkout" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
# With a fresh HOME the go command would start its detached telemetry
# child (once a day per config dir), which outlives this script. The
# mode file is the only switch for it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
