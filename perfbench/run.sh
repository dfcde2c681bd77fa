#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it:
#
#   bash perfbench/run.sh --workload engine-paper --seed 1 --seconds 30 --trace 0
#
# Run from the repository root.  Everything the Go toolchain writes (build
# cache, module cache, temp files, telemetry) stays under .bench_build in
# the current directory, so the run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false" GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
