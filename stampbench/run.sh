#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#   bash stampbench/run.sh --workload short-serve --seed 1 --seconds 30 --trace 0
# All build output and Go caches stay in .bench_build at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C "$root/stampbench" build -o "$out/stampbench" .
cd "$root"
exec "$out/stampbench" "$@"
