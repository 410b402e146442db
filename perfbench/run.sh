#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it.
#
#   bash perfbench/run.sh --workload square --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh steady -runs 10 -sets 2
#
# Run from the repository root. Build outputs, the Go build cache and the
# traced run's spans go under $CARGO_TARGET_DIR (default .bench_build), so
# nothing is written outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no fmmfam module at $root (go.mod missing)" >&2
	exit 1
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOENV=off
mkdir -p "$HOME"

(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/perfbench-steady" ./steady)

if [ "${1:-}" = "steady" ]; then
	shift
	exec "$out/perfbench-steady" -bench "$out/perfbench" -config "$root/BENCHMARK.json" "$@"
fi
exec "$out/perfbench" -spans "$out/spans" "$@"
