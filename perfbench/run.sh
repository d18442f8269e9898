#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload serve-bgl --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, scratch data and traces all stay under
# .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Everything the go command writes (build cache, module cache, temporary
# files, telemetry counters under the user config directory) goes there.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
