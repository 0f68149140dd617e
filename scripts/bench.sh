#!/bin/sh
# Refresh the simulator perf baseline.
#
# Usage: scripts/bench.sh [N] [extra fiferbench flags...]
#
# Writes BENCH_<N>.json (default N from the highest existing baseline + 1,
# or 0 when none exist) in the repo root: every app's first input simulated
# with the default parking kernel and with the naive-loop oracle, with wall
# times, simulated cycles/second, speedups, and the share of PE-cycles the
# default kernel ticked. Compare successive BENCH_*.json files to track the
# simulator's perf trajectory across PRs.
set -eu
cd "$(dirname "$0")/.."

n="${1:-}"
if [ -n "$n" ]; then shift; else
	n=-1
	for f in BENCH_*.json; do
		[ -e "$f" ] || break
		i="${f#BENCH_}"
		i="${i%.json}"
		[ "$i" -gt "$n" ] && n="$i"
	done
	n=$((n + 1))
fi

out="BENCH_${n}.json"
echo "writing $out" >&2
go run ./cmd/fiferbench -perfjson "$out" -scale 1 -seed 1 "$@"
