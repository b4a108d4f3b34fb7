#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build and the run write stays inside the
# checkout: the Go build cache, the binary and go's own scratch files go
# to .bench_build/, reports, traces and profiles to benchmark/out/.
#
#   bash benchmark/run.sh                      every workload, untraced then traced
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh compare A.json B.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/elasticore-benchmark" .)
cd "$root"
exec "$build/elasticore-benchmark" "$@"
