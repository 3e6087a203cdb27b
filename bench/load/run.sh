#!/usr/bin/env bash
# Builds the load benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/load/run.sh --workload cold-kp --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build
# under the current directory, and nothing is fetched from the network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C bench/load build -o "$out/delprop-load" .
exec "$out/delprop-load" "$@"
