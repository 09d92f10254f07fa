#!/usr/bin/env bash
# Builds the flexio benchmark from source and runs it.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload hpio-write --seed 1 --seconds 10 --trace 0
#
# Every build artefact and Go cache lives under .bench_build/ in the
# current directory, so the run reads and writes nothing outside the
# checkout.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
