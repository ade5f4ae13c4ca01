#!/usr/bin/env bash
# Builds the benchmark from the sources next to it and runs it with the
# given arguments. Run it from the repository root:
#
#   bash .perfbench/run.sh --workload fit_union --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and Go's temporary files all live under
# .bench_build/ in the current directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOWORK=off GOTOOLCHAIN=local GOENV=off GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
