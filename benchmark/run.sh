#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash benchmark/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark: run from the root of a VINI checkout (go.mod, internal/, benchmark/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/xdg-config" "$build/xdg-cache" "$build/gomod"
# Keep the go command's cache, temp files, telemetry counters and module
# cache inside the checkout, and never let it reach the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/xdg-config" XDG_CACHE_HOME="$build/xdg-cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off PPROF_TMPDIR="$build/tmp"

(cd "$root/benchmark" && go build -o "$build/vini-bench" .)
exec "$build/vini-bench" "$@"
