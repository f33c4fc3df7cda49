#!/usr/bin/env bash
# Builds the benchmark harness and the selgen worker binary from the
# checkout it is run in, then runs one workload:
#
#   bash bench/run.sh --workload quick --seed 1 --seconds 18 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in that root (Go build cache included).
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=""
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

# -C bench: the harness is a module of its own that takes the repository
# module from ../ (see bench/go.mod).
go build -C bench -o "$out/bin/" . selgen/cmd/selgen
exec "$out/bin/bench" "$@"
