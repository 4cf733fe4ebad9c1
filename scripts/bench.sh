#!/bin/sh
# Bench-regression gate: runs the paper benchmarks at -benchtime 1x and
# compares every deterministic sim-* metric — plus the farm-* Monte Carlo
# sweep aggregates, churn-* policy costs, seq-* sequencer predictions and
# rdma-* QP-replay ladder observables —
# against the committed baseline (scripts/bench_baseline.json) via
# cmd/benchdiff. Wall-clock metrics (ns/op, events/sec, runs/sec) are
# informational only and never compared.
#
# The full suite also runs the wall-clock benchmark (perfbench/run.sh
# --trace 0, 25 s per workload) and records its four result lines in the
# wall section of BENCH_<date>.json. benchdiff prints them against the
# newest earlier BENCH file that has one; they never gate.
#
# Usage:
#   scripts/bench.sh            # full suite; writes BENCH_<date>.json
#   scripts/bench.sh --smoke    # fast subset (Table 2 / Fig 6 / ablations)
#   scripts/bench.sh --update   # intentionally re-baseline after a change
#
# Exits non-zero if any sim-*/farm-* metric drifts beyond 1e-6 relative.
set -eu
cd "$(dirname "$0")/.."

mode="${1:-}"
pattern='Benchmark'
diffargs=""
case "$mode" in
--smoke)
    # Subset chosen for coverage per second: hotplug+link-up, the
    # migration-time sweep, and the single-shot ablations. ~2 s total.
    pattern='BenchmarkTable2HotplugLinkup|BenchmarkFig6MemtestOverhead|BenchmarkAblation'
    ;;
--update)
    diffargs="-update"
    ;;
"") ;;
*)
    echo "usage: scripts/bench.sh [--smoke|--update]" >&2
    exit 2
    ;;
esac

out=$(mktemp)
wall=$(mktemp)
trap 'rm -f "$out" "$wall" "$wall.run"' EXIT
go test -run '^$' -bench "$pattern" -benchtime 1x . | tee "$out"

if [ "$mode" = "" ]; then
    for w in paper sweep churn control; do
        bash perfbench/run.sh --workload "$w" --seconds 25 --trace 0 >"$wall.run"
        printf '%s %s\n' "$w" "$(tail -n 1 "$wall.run")" >>"$wall"
    done
    diffargs="-write BENCH_$(date +%F).json -wall $wall"
fi
# shellcheck disable=SC2086
go run ./cmd/benchdiff $diffargs <"$out"
