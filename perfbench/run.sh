#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it; every
# argument is passed on. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload lookup-zipf --seed 1 --seconds 20 --trace 0
#
# The build cache, module cache and binary stay in .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
