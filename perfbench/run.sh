#!/usr/bin/env bash
# Builds perfbench and the xtalkd daemon from this checkout's
# sources, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload churn-fleet --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/xtalkd" xtalk/cmd/xtalkd
cd "$root"
exec "$out/perfbench" -config perfbench/config.json -daemon "$out/xtalkd" -workdir "$out" "$@"
