#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload clinic-warm --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, WAL files, traces) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build/work" "$@"
