#!/bin/sh
# Pre-merge gate, equivalent to `make check`: formatting + build + vet +
# race-enabled full test suite + a fast fleet-evacuation smoke run. Run
# from anywhere inside the repository.
set -eux
cd "$(dirname "$0")/.."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
# One fault path: faults.Injector is the only code that fails or restores
# a node. A .Fail()/.Restore() call in any other non-test Go file would be
# a second fault scheduler, so it fails the gate.
stray=$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.git \
    --exclude-dir=.bench_build '\.(Fail|Restore)\(\)' . | grep -v '^\./internal/faults/' || true)
if [ -n "$stray" ]; then
    echo "node Fail/Restore called outside internal/faults:" >&2
    echo "$stray" >&2
    exit 1
fi
go build ./...
go vet ./...
go test -race ./...
# The benchmark is its own module (perfbench/go.mod) importing the
# simfarm, experiments and jobs APIs, so ./... above never builds it. Its
# tests check the sweep, churn, paper and control digests (~10 s).
go -C perfbench vet ./...
go -C perfbench test ./...
# Smoke the fleet control plane end to end (small fleet, ~1 s). The
# matrix includes the rolling-maintenance drain and the bidirectional
# return-home rows.
go run ./cmd/ninjabench -run=ext-fleet -fleet-jobs=3 -fleet-drain-cap=2 >/dev/null
# ...and the time-expanded max-flow sequencing matrix (the alternate
# planner drives the same executor through merged rounds).
go run ./cmd/ninjabench -run=ext-fleet -fleet-jobs=3 -fleet-drain-cap=2 -fleet-seq=maxflow >/dev/null
# Single-job fault smoke under the race detector: both matrices on the
# shared 2-VM fault runner — every phase × fault row of ext-faults, and
# every ext-rdma rung (clean QP replay, the three injected demotions, the
# preflight demotion and the hotplug baseline).
go run -race ./cmd/ninjabench -run=ext-faults,ext-rdma >/dev/null
# Monte Carlo sweep smoke under the race detector: 5×3×2 = 30 cells run
# twice (parallelism 1 and 8) with the byte-identity check — 60 runs, just
# under the 64-run budget; a nondeterministic summary or a data race in
# the farm's worker pool fails here.
go run -race ./cmd/ninjabench -run=ext-sweep -sweep-jobs=2 -sweep-seeds=2 >/dev/null
# Online churn smoke under the race detector: the full policy × fault
# matrix (greedy vs destination-swap, fault free and through a node
# crash) on a reduced arrival count; the engine's mini-plan pipeline and
# fault injection run on the shared kernel here.
go run -race ./cmd/ninjabench -run=ext-churn -churn-jobs=24 >/dev/null
# Bench-regression smoke: deterministic sim-* metrics vs the committed
# baseline (full sweep: scripts/bench.sh).
sh scripts/bench.sh --smoke >/dev/null
# ninjad crash-recovery smoke: submit a directive, kill -9 the daemon
# mid-lifecycle, restart it on the same state directory, and verify the
# job still completes — then drain cleanly on SIGTERM.
sh scripts/ninjad-smoke.sh
