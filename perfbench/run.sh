#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload web-http --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The binary, the Go build cache and
# every data directory the workloads create live under .bench_build/ there.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off GOFLAGS=
(cd "$here" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
