#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. The
# binary, the Go build cache and every file a run creates stay under
# .bench_build/ at the root of the checkout, so nothing outside it is
# written (BENCHMARK.json's command is `bash bench/run.sh`).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/qusim-bench" .)
exec "$build/qusim-bench" -workdir "$build/work" "$@"
