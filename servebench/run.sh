#!/usr/bin/env bash
# Builds the serving benchmark from the sources of the checkout it sits in
# and runs it with the arguments given, e.g.
#
#   bash servebench/run.sh --workload hot-small --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the span dumps all stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$root/servebench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/servebench" .)
exec "$out/servebench" "$@"
