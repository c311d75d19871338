#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload exa-clean --seed 42 --seconds 25 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# (compiled binary, Go build cache, span dumps, stamped results). The build
# needs only the Go toolchain and the repository's own sources.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Stop-the-world collection: with one P the concurrent collector gains
# nothing, and its pacing made each pass's heap peak differ from run to
# run (540–900 MB on exa-clean); stopped, the collector fires at the same
# allocations on every run of a seed, so the peak follows the inputs.
GODEBUG=gcstoptheworld=1 exec "$out/perfbench" "$@"
