#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash bench/run.sh --workload vt-table1 --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/ (git-ignored): the Go build cache, the binary, and TMPDIR —
# which is where the benchmark falls back to when /dev/shm is not writable.
# The build is not timed; with a warm cache it is a 0.2 s no-op.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
go build -o "$build/aiacbench" ./bench
exec "$build/aiacbench" "$@"
