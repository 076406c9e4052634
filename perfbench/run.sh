#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the
# repository root; the arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload serve-zipf-mesh64 --seed 1 --seconds 15 --trace 0
#
# The binary and the Go build cache go under .bench_build/ in the
# current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
