#!/usr/bin/env bash
# Builds landlordd and the benchmark's load generator from the checkout
# in the current directory, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload warm-hits --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and every run's state live under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config"
# Keep the Go tool's caches and config inside the checkout, and never
# let it reach for a network toolchain or module proxy.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
# With telemetry on (the default "local" mode), the go command forks a
# detached telemetry process that outlives this script; turn it off in
# the checkout's own config dir before the first go command.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/bin/landlordd" ./cmd/landlordd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --root "$root" --landlordd "$out/bin/landlordd" "$@"
