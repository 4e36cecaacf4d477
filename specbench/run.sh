#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root:
#
#   bash specbench/run.sh --workload study --seed 14 --seconds 20 --trace 0
#
# Everything the build and the run leave behind stays inside the
# checkout: the Go build cache and the binary under .bench_build/, run
# scratch (corpora, audit logs, span dumps, identity maps) under
# .bench_out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/specbench" && go build -o "$build/specbench" .)
cd "$root"
exec "$build/specbench" "$@"
