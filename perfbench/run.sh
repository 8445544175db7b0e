#!/usr/bin/env bash
# Builds the benchmark (perfbench) from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 40 --trace 0
#
# The build cache, the binary and every scratch file stay under
# .bench_build in the current directory; nothing is fetched.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
