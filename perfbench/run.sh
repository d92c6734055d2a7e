#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# traced run's spans all go to $CARGO_TARGET_DIR (default .bench_build),
# so nothing is written outside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out" "$@"
