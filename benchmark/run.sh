#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash benchmark/run.sh --workload geo-read --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and its temporary files go under
# .bench_build/ (or $CARGO_TARGET_DIR when set);
# reports and span dumps under .bench_out/.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/agar-benchmark" .)
exec "$build/agar-benchmark" "$@"
