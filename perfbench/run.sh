#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root, e.g.:
#
#   bash perfbench/run.sh --workload hydra-cold --seed 7 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the Go
# build cache, temporary files and the binary. Network access is never
# needed: the module depends only on the repository itself.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
