#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-mixed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the driver binary, WAL and
# snapshot directories, and span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out/work" "$@"
