#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, e.g.
#
#   bash bench/run.sh --workload serve-steady --seed 1 --seconds 15 --trace 0
#
# The binary and Go's build cache live in .bench_build, so a run reads
# and writes nothing outside the checkout. Build output goes to standard
# error: the last line of standard output is the benchmark's JSON result.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$build/bench" ./bench >&2
exec "$build/bench" "$@"
