#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes (Go build cache, binary, scratch volumes) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/scratch"
# XDG_CONFIG_HOME keeps the go command's own settings and counters in there too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/embench" .)
exec "$build/embench" -dir "$build/scratch" "$@"
