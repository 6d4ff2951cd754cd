#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from,
# then runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload water-sync --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, the
# binary) goes under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
