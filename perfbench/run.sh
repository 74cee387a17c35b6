#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it with the arguments given, e.g. from the root:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
#
# The build's caches stay inside the checkout and no toolchain or module is
# fetched. exec hands this process over to the benchmark binary, so a signal
# sent to it reaches the benchmark itself and nothing is left running.
set -euo pipefail
bench=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$bench")/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
