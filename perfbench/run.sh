#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root. The binary, the Go build cache and every file a run
# writes stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
