#!/usr/bin/env bash
# Builds the RASA benchmark from the source tree around this directory
# and runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload converge --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, Go config) stays under
# .bench_build at the repository root, so the run writes nothing outside
# the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/home" "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$out/rasabench-perf" .) >&2
exec "$out/rasabench-perf" "$@"
