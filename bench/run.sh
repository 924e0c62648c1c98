#!/usr/bin/env bash
# Builds bench/orcfbench from source into <checkout>/.bench_build and runs it
# from the checkout root with the arguments it was given. Every file the build
# and the run write (Go build cache, link temporaries, WAL/checkpoint state
# directories, span dumps) stays under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/orcfbench" ./orcfbench)
cd "$root"
exec "$out/orcfbench" -dir "$out" "$@"
