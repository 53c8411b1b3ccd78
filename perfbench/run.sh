#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload basket-simple --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, the
# durable store of served-mixed and the saved result records.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
