#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it there; the go command's cache is kept in the same directory, so
# that nothing is written outside the checkout.
set -eu
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -C bench -o ../.bench_build/bench .
exec .bench_build/bench "$@"
