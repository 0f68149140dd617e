#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload graph-fifer --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory, or under $CARGO_TARGET_DIR when that is set. Go's cache,
# temporary files and telemetry are pointed there too.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$(pwd)/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS=-mod=mod GOPROXY=off GOWORK=off \
	GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --out "$out/trace" "$@"
