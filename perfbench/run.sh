#!/usr/bin/env bash
# Builds ninjad and the benchmark from this checkout's sources, then runs
# the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/
# in the checkout. Exits non-zero without a result when the sources are
# not there to build.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/ninjad ] || [ ! -f perfbench/go.mod ]; then
    echo "perfbench: run from the repository root; the sources to build are missing" >&2
    exit 2
fi

B="$PWD/.bench_build"
mkdir -p "$B/bin" "$B/tmp" "$B/config"
export GOCACHE="$B/gocache" GOPATH="$B/gopath" GOMODCACHE="$B/gopath/pkg/mod" \
    GOTMPDIR="$B/tmp" TMPDIR="$B/tmp" PPROF_TMPDIR="$B/tmp" \
    XDG_CONFIG_HOME="$B/config" XDG_CACHE_HOME="$B/config" \
    GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$B/bin/ninjad" ./cmd/ninjad
go -C perfbench build -o "$B/bin/perfbench" .
exec "$B/bin/perfbench" -ninjad "$B/bin/ninjad" -work-dir "$B/tmp" -trace-dir "$B/trace" "$@"
