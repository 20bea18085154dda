#!/usr/bin/env bash
# Builds fannr-server, fannr-shard and the benchmark from this checkout,
# then runs one workload from the checkout's root:
#
#   bash servebench/run.sh --workload poi-fresh --seed 1 --seconds 18 --trace 0
#
# Build products, the Go build and configuration directories, server
# logs and the benchmark's index cache all stay under the build
# directory (.bench_build, or $CARGO_TARGET_DIR when set).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/bin/" ./cmd/fannr-server ./cmd/fannr-shard
(cd servebench && go build -o "$out/bin/servebench" .)
exec "$out/bin/servebench" -bin "$out/bin" -work "$out" "$@"
