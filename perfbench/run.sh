#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash perfbench/run.sh --workload amr-node --seed 1 --seconds 55 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build in the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/bin/perfbench" .)
cd "$root"
exec "$build/bin/perfbench" "$@"
