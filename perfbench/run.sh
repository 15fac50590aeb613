#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# The binary, the Go build cache, the Go tool's own state and the run's
# scratch stores all stay in .bench_build/ under the current directory.
# Usage:
#   bash perfbench/run.sh --workload campaign|feedback|fleet --seed N --seconds S --trace 0|1
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
