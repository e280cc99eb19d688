#!/usr/bin/env bash
# Builds the benchmark and the gateway binary from the tree it sits in and
# runs one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload reach-p2p --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the repository (or under $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
go build -o "$out/serve" ./cmd/serve >&2
exec "$out/perfbench" -serve "$out/serve" -work "$out/perfbench-work" "$@"
