#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it.
# BENCHMARK.json's command is `bash bench/run.sh`; the driver appends
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/distbench" .)
cd "$root"
exec "$build/distbench" "$@"
