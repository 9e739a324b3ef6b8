#!/bin/sh
# CI gate: release build, full test suite, clippy, and the 16-seed chaos sweep.
#
# Offline-friendly: the workspace uses only in-tree path dependencies,
# so --offline always works; we pass it when the network is known-bad
# and let plain cargo work everywhere else.
set -eu

cd "$(dirname "$0")/.."

CARGO="${CARGO:-cargo}"
OFFLINE="${CARGO_OFFLINE:---offline}"

run() {
    echo "+ $*"
    "$@"
}

run "$CARGO" build --release $OFFLINE
run "$CARGO" test -q $OFFLINE

# Lint gate: clippy over every crate and target. Warnings print but pass;
# a deny-level lint (e.g. `never_loop`) fails the build and with it CI.
run "$CARGO" clippy $OFFLINE --workspace --all-targets --no-deps

# The deterministic chaos sweep: 16 seeds (CHAOS_SEEDS to widen). A
# failing seed prints its own one-line replay command.
CHAOS_SEEDS="${CHAOS_SEEDS:-16}"
export CHAOS_SEEDS
run "$CARGO" test -p vinz --test chaos $OFFLINE -- --nocapture
# Both lib suites, about a second warm: bluebox's chaos and TCP
# write-deadlock regressions, vinz's LogStore writer and lock table.
run "$CARGO" test -p bluebox -p vinz --lib $OFFLINE
run "$CARGO" test --test survivability $OFFLINE

# LogStore recovery shapes, the mem-vs-log opcode-identity sweep, the
# prefix-closure sweep, and the phase ledger with the durability
# boundary test (under 10 s warm); then the suites tier-1 (the root
# package only) does not reach, seconds each: the serializer's own
# (delta incl. the warm-vs-cold seed cache differential, roundtrip,
# adversarial), the event bus's (a disabled bus never builds an event,
# ring overflow and drop counts), and the vinz workflow and service
# suites, which hold the lifecycle-order assertions on `EventKind` and
# the idempotent-entry table for the four operations that enter a fiber
# and the store census of a task; and the two suites either side of
# `start`: the admission gate in front of it, and the corrupt `fiber-v/`
# records behind it (a record whose mere presence says "suspended").
run "$CARGO" test -p vinz --test logstore --test phases $OFFLINE
run "$CARGO" test -p gozer-serial $OFFLINE
run "$CARGO" test -p gozer-obs $OFFLINE
run "$CARGO" test -p vinz --test workflows --test services $OFFLINE
run "$CARGO" test -p vinz --test admission --test adversarial $OFFLINE

# Recovery gate: the armed sweep (chaos stays enabled; leases,
# supervisor, and retries absorb every failure) plus the dead-letter
# quarantine assertions.
run make recovery-check

# Observability gate: the text exporter must serve all required metric
# families with non-zero activity after a real workflow run.
run make obs-check

# Profiler gate: `gozer-repl profile` on the example pipeline must emit
# a consistent hot-function report and well-formed folded stacks.
run make profile-check

# Introspection gate: the live HTTP endpoint must serve /metrics
# (byte-identical to the in-process exporter), /healthz, /tasks, and
# /timeline/<task> with well-formed payloads.
run make introspect-check

# Adversarial-input gate: bounded-iteration run of every fuzz target
# (reader, compiler, serial state, serial delta) — any panic, abort, or
# hang is a finding.
FUZZ_ITERS="${FUZZ_ITERS:-2000}"
export FUZZ_ITERS
run make fuzz-smoke

# Experiments gate: every paper experiment downscaled with its shape
# assertions on (including the GVM fast-path floor and the LogStore
# fsync/write counts), and every report's key set equal to its
# committed BENCH_*.json baseline. No timing thresholds.
run make experiments-smoke

# Multi-process transport gate: real gozer-worker OS processes over the
# TCP transport, one genuine kill -9 + restart mid-stream, exact values
# required. cluster_smoke.sh traps EXIT/INT/TERM and reaps any orphaned
# worker processes, so a failed gate cannot leak children into CI.
run make cluster-smoke

# Task-level benchmark gate: all six BENCHMARK.json workloads in smoke
# mode. Its watchdog turns a wedged deployment into a failure, and the
# shape check catches a report that drifted from BENCHMARK.json.
run make taskbench-smoke

echo "ci: OK (chaos sweep width $CHAOS_SEEDS)"
