#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs one
# workload. Run it from anywhere inside the checkout:
#
#   bash perfbench/run.sh --workload fleet-sim --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache and scratch
# files, the binary, the corpus file, span dumps) stays under
# .bench_build/ at the root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" -commit "$commit" -out "$build/perfbench-out" "$@"
